(* The fixed-step backward-Euler transient: the oracle that [Sim.Tran]'s
   error-controlled steps are checked against.  Every step is exactly
   [dt] long, starts its Newton iteration from the previous solution and
   stamps the same compiled program ([Sim.Stamps.transient] with the
   backward-Euler coefficients), so the two differ only in where the time
   points fall and how each step's derivative is formed. *)

module El = Netlist.Element

type t = { ts : float array; idx : Sim.Indexing.t; states : float array array }

let circuit_at_t0 circuit =
  let freeze (s : El.source) =
    { s with El.dc = (match s.El.wave with Some w -> w 0.0 | None -> s.El.dc) }
  in
  let rewrite = function
    | El.Isource ({ i; _ } as r) -> El.Isource { r with i = freeze i }
    | El.Vsource ({ v; _ } as r) -> El.Vsource { r with v = freeze v }
    | (El.Mos _ | El.Resistor _ | El.Capacitor _) as e -> e
  in
  List.fold_left
    (fun acc e -> Netlist.Circuit.add acc (rewrite e))
    (Netlist.Circuit.create ~title:(Netlist.Circuit.title circuit))
    (Netlist.Circuit.elements circuit)

let newton_step sv kind prog ~gmin ~time drive prev =
  let x = Array.copy prev in
  let rec loop iter =
    if iter >= 80 then
      raise (Phys.Numerics.No_convergence
               (Printf.sprintf "Tran_oracle: Newton failed at t=%g" time))
    else begin
      let delta, _ =
        try Sim.Stamps.newton_update sv kind prog ~gmin drive x
        with Linalg.Singular _ ->
          raise (Phys.Numerics.No_convergence
                   (Printf.sprintf "Tran_oracle: singular at t=%g" time))
      in
      let m = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 delta in
      let scale = if m > 0.5 then 0.5 /. m else 1.0 in
      Array.iteri (fun i d -> x.(i) <- x.(i) +. scale *. d) delta;
      if m *. scale < 1e-9 then x else loop (iter + 1)
    end
  in
  loop 0

let run ?(guess = fun _ -> None) ?(gmin = 1e-12) ~proc ~kind ~tstop ~dt
    circuit =
  let n_steps = int_of_float (Float.ceil (tstop /. dt)) in
  let dc =
    Sim.Dcop.solve ~guess ~gmin ~proc ~kind (circuit_at_t0 circuit)
  in
  let idx = Sim.Dcop.indexing dc in
  let n = Sim.Indexing.size idx in
  let x0 =
    Array.init n (fun i ->
      if i < Sim.Indexing.node_count idx then
        Sim.Dcop.voltage dc (Sim.Indexing.node_names idx).(i)
      else 0.0)
  in
  let ts = Array.init (n_steps + 1) (fun i -> float_of_int i *. dt) in
  let states = Array.make (n_steps + 1) x0 in
  let prog = Sim.Stamps.compile proc idx circuit in
  let sv = Sim.Stamps.solver Sim.Stamps.Kernel n in
  let coeffs = [| 1.0 /. dt; -1.0 /. dt |] in
  for step = 1 to n_steps do
    let prev = states.(step - 1) and time = ts.(step) in
    let drive =
      Sim.Stamps.transient kind prog ~time ~coeffs ~hist:[| prev |] ~caps_at:prev
    in
    states.(step) <- newton_step sv kind prog ~gmin ~time drive prev
  done;
  { ts; idx; states }

let times r = r.ts

let waveform r node =
  match Sim.Indexing.node_index r.idx node with
  | None -> Array.map (fun _ -> 0.0) r.ts
  | Some i -> Array.map (fun s -> s.(i)) r.states
