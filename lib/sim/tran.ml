module El = Netlist.Element

type result = {
  ts : float array;
  idx : Indexing.t;
  states : float array array; (* states.(step).(unknown) *)
}

let source_value (s : El.source) t =
  match s.El.wave with Some w -> w t | None -> s.El.dc

let max_abs a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 a

(* Full Newton on one backward-Euler step from [prev]; returns the solution
   and the iterations it took. *)
let newton_step sv kind prog ~gmin ~time drive prev =
  let x = Array.copy prev in
  let rec loop iter =
    if iter >= 80 then
      raise (Phys.Numerics.No_convergence
               (Printf.sprintf "Tran: Newton failed at t=%g" time))
    else begin
      let delta, _ =
        try Stamps.newton_update sv kind prog ~gmin drive x
        with Linalg.Singular _ ->
          raise (Phys.Numerics.No_convergence
                   (Printf.sprintf "Tran: singular Jacobian at t=%g" time))
      in
      let m = max_abs delta in
      let scale = if m > 0.5 then 0.5 /. m else 1.0 in
      Array.iteri (fun i d -> x.(i) <- x.(i) +. scale *. d) delta;
      if m *. scale < 1e-9 then (x, iter + 1) else loop (iter + 1)
    end
  in
  loop 0

(* The DC operating point at t = 0 uses the waveform values at time 0
   rather than the DC fields. *)
let circuit_at_t0 circuit =
  let freeze (s : El.source) = { s with El.dc = source_value s 0.0 } in
  let rewrite = function
    | El.Isource ({ i; _ } as r) -> El.Isource { r with i = freeze i }
    | El.Vsource ({ v; _ } as r) -> El.Vsource { r with v = freeze v }
    | (El.Mos _ | El.Resistor _ | El.Capacitor _) as e -> e
  in
  List.fold_left
    (fun acc e -> Netlist.Circuit.add acc (rewrite e))
    (Netlist.Circuit.create ~title:(Netlist.Circuit.title circuit))
    (Netlist.Circuit.elements circuit)

let run ?backend ?dt ?(guess = fun _ -> None) ?(gmin = 1e-12)
    ?(stop = fun _ _ -> false) ~proc ~kind ~tstop circuit =
  assert (tstop > 0.0);
  let backend = Option.value backend ~default:Stamps.Kernel in
  let dt = match dt with Some d -> d | None -> tstop /. 2000.0 in
  let n_steps = int_of_float (Float.ceil (tstop /. dt)) in
  let dc = Dcop.solve ~backend ~guess ~gmin ~proc ~kind (circuit_at_t0 circuit) in
  let idx = Dcop.indexing dc in
  let x0 =
    Array.init (Indexing.size idx) (fun i ->
      if i < Indexing.node_count idx then
        Dcop.voltage dc (Indexing.node_names idx).(i)
      else 0.0)
  in
  let states = Array.make (n_steps + 1) x0 in
  let ts = Array.init (n_steps + 1) (fun i -> float_of_int i *. dt) in
  let prog = Stamps.compile proc idx circuit in
  let sv = Stamps.solver backend (Indexing.size idx) in
  let iters = ref 0 in
  let rec go step =
    if step > n_steps then n_steps
    else begin
      let time = ts.(step) and prev = states.(step - 1) in
      let drive = Stamps.transient kind prog ~time ~dt ~prev in
      let x, it = newton_step sv kind prog ~gmin ~time drive prev in
      iters := !iters + it;
      states.(step) <- x;
      let volt node =
        match Indexing.node_index idx node with None -> 0.0 | Some i -> x.(i)
      in
      if stop time volt then step else go (step + 1)
    end
  in
  let last = go 1 in
  if Obs.Config.enabled () then begin
    Obs.Metrics.add "sim.tran.steps" (float_of_int last);
    Obs.Metrics.add "sim.tran.newton_iters" (float_of_int !iters)
  end;
  { ts = Array.sub ts 0 (last + 1); idx; states = Array.sub states 0 (last + 1) }

let times r = r.ts

let waveform r node =
  match Indexing.node_index r.idx node with
  | None -> Array.map (fun _ -> 0.0) r.ts
  | Some i -> Array.map (fun s -> s.(i)) r.states

let value_at r node t =
  let w = waveform r node in
  let pts = Array.mapi (fun i v -> (r.ts.(i), v)) w in
  Phys.Numerics.interp_linear pts t

let crossing ?(after = 0.0) r node ~level ~falling =
  let w = waveform r node and ts = r.ts in
  let past v = if falling then v <= level else v >= level in
  let rec go i =
    if i >= Array.length w then None
    else if ts.(i) < after || not (past w.(i)) then go (i + 1)
    else if i = 0 || past w.(i - 1) then Some ts.(i)
    else
      let frac = (level -. w.(i - 1)) /. (w.(i) -. w.(i - 1)) in
      Some (ts.(i - 1) +. (frac *. (ts.(i) -. ts.(i - 1))))
  in
  go 0

let max_slope r node =
  let w = waveform r node in
  let rising = ref 0.0 and falling = ref 0.0 in
  for i = 1 to Array.length w - 1 do
    let slope = (w.(i) -. w.(i - 1)) /. (r.ts.(i) -. r.ts.(i - 1)) in
    if slope > !rising then rising := slope;
    if -.slope > !falling then falling := -.slope
  done;
  (!rising, !falling)

let settling_time r node ~target ~tol =
  let w = waveform r node in
  let n = Array.length w in
  (* walk backwards to find the last excursion outside the band *)
  let rec last_out i =
    if i < 0 then None
    else if Float.abs (w.(i) -. target) > tol then Some i
    else last_out (i - 1)
  in
  match last_out (n - 1) with
  | None -> Some 0.0
  | Some i when i = n - 1 -> None
  | Some i -> Some r.ts.(i + 1)
