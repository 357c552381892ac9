(* Reusable solver workspaces, one set per domain (via [Domain.DLS]) keyed
   by system size.

   A workspace bundles everything a dense factor/solve needs — the matrix,
   right-hand side, solution vector and pivot buffer — so repeated solves
   of same-sized systems (Newton iterates, gmin/alpha continuation steps,
   transient steps, Monte Carlo samples) re-stamp into the same memory and
   allocate nothing.  Domain-local storage makes concurrent use from the
   [Par.Pool] safe without locks: each worker domain materialises its own
   workspace on first use.

   Acquisitions are counted as [linalg.ws.hits] / [linalg.ws.creates] when
   telemetry is enabled, so workspace reuse is observable. *)

type real = {
  jac : Dense_f.t;
  rhs : float array;
  delta : float array;
  piv : int array;
}

let count_acquire hit =
  if (Obs.Config.enabled ()) then
    Obs.Metrics.incr (if hit then "linalg.ws.hits" else "linalg.ws.creates")

let real_key : (int, real) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let real n =
  let tbl = Domain.DLS.get real_key in
  match Hashtbl.find_opt tbl n with
  | Some ws ->
    count_acquire true;
    ws
  | None ->
    let ws =
      {
        jac = Dense_f.create n n;
        rhs = Array.make n 0.0;
        delta = Array.make n 0.0;
        piv = Array.make n 0;
      }
    in
    Hashtbl.add tbl n ws;
    count_acquire false;
    ws
