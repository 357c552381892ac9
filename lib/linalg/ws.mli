(** Reusable solver workspaces, per domain and per system size.

    A workspace bundles the matrix, right-hand side, solution and pivot
    buffers of a dense solve so that repeated same-sized solves (Newton
    iterates, continuation steps, transient steps) re-stamp into the same
    memory and allocate nothing on the factor/solve path.  Storage is
    domain-local ([Domain.DLS]): every worker domain of the [Par] pool
    gets its own buffers, so no locking is needed.

    Acquisitions are counted as [linalg.ws.hits] / [linalg.ws.creates]
    metrics when telemetry is on. *)

type real = {
  jac : Dense_f.t;  (** [n x n] system matrix, re-stamped per solve *)
  rhs : float array;
  delta : float array;  (** solution vector *)
  piv : int array;
}

val real : int -> real
(** The calling domain's real workspace for [n] unknowns (created on
    first use, reused after). *)
