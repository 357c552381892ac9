module R = Linalg.Real
module El = Netlist.Element
module SM = Map.Make (String)

type result = {
  ts : float array;
  idx : Indexing.t;
  states : float array array; (* states.(step).(unknown) *)
}

let source_value (s : El.source) t =
  match s.El.wave with Some w -> w t | None -> s.El.dc

(* Backward-Euler companion: i = (c/dt) (v - v_prev). *)
let cap_companion ctx ~p ~n ~c ~dt ~vprev =
  let g = c /. dt in
  Stamps.conductor ctx ~p ~n ~g ~i_extra:(-.g *. vprev)

let build proc kind circuit idx ~gmin ~time ~dt ~prev ctx =
  let prev_volt node =
    match Indexing.node_index idx node with None -> 0.0 | Some i -> prev.(i)
  in
  let stamp_elem = function
    | El.Resistor { p; n; r; _ } -> Stamps.resistor ctx ~p ~n ~r
    | El.Capacitor { p; n; c; _ } ->
      cap_companion ctx ~p ~n ~c ~dt ~vprev:(prev_volt p -. prev_volt n)
    | El.Isource { p; n; i; _ } -> Stamps.isource ctx ~p ~n (source_value i time)
    | El.Vsource { name; p; n; v; _ } ->
      let row = Indexing.vsource_index idx name in
      Stamps.vsource ctx ~row ~p ~n (source_value v time)
    | El.Mos { dev; d; g; s; b } ->
      Stamps.mos proc kind ctx ~dev ~d ~g ~s ~b;
      (* Device capacitances linearised at the previous time point. *)
      let bias =
        Stamps.device_bias dev ~vd:(prev_volt d) ~vg:(prev_volt g)
          ~vs:(prev_volt s) ~vb:(prev_volt b)
      in
      let op = Device.Op.compute proc kind dev bias in
      let cc = op.Device.Op.caps in
      let pair p n c =
        if c > 0.0 then cap_companion ctx ~p ~n ~c ~dt ~vprev:(prev_volt p -. prev_volt n)
      in
      pair g s cc.Device.Caps.cgs;
      pair g d cc.Device.Caps.cgd;
      pair g b cc.Device.Caps.cgb;
      pair d b cc.Device.Caps.cdb;
      pair s b cc.Device.Caps.csb
  in
  List.iter stamp_elem (Netlist.Circuit.elements circuit);
  Stamps.gmin_all ctx gmin

let max_abs a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 a

let newton_step backend proc kind circuit idx ~gmin ~time ~dt ~prev x0 =
  let n = Indexing.size idx in
  let x = Array.copy x0 in
  let ws =
    match backend with
    | Stamps.Kernel -> Some (Linalg.Ws.real n)
    | Stamps.Reference -> None
  in
  let rec loop iter =
    if iter >= 80 then
      raise (Phys.Numerics.No_convergence
               (Printf.sprintf "Tran: Newton failed at t=%g" time))
    else begin
      let ctx =
        match ws with
        | Some w -> Stamps.make_ws idx w x
        | None -> Stamps.make idx x
      in
      build proc kind circuit idx ~gmin ~time ~dt ~prev ctx;
      let f = ctx.Stamps.f in
      let delta =
        try
          match ctx.Stamps.jac, ws with
          | Stamps.Unboxed m, Some w ->
            for i = 0 to n - 1 do
              Array.unsafe_set f i (-.(Array.unsafe_get f i))
            done;
            Linalg.Dense_f.lu_factor_in_place m ~piv:w.Linalg.Ws.piv;
            Linalg.Dense_f.lu_solve_into m ~piv:w.Linalg.Ws.piv
              ~b:w.Linalg.Ws.rhs ~x:w.Linalg.Ws.delta;
            w.Linalg.Ws.delta
          | Stamps.Boxed m, _ -> R.solve m (Array.map (fun v -> -.v) f)
          | Stamps.Unboxed _, None -> assert false
        with Linalg.Singular _ ->
          raise (Phys.Numerics.No_convergence
                   (Printf.sprintf "Tran: singular Jacobian at t=%g" time))
      in
      let m = max_abs delta in
      let scale = if m > 0.5 then 0.5 /. m else 1.0 in
      Array.iteri (fun i d -> x.(i) <- x.(i) +. scale *. d) delta;
      if m *. scale < 1e-9 then x else loop (iter + 1)
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

let run ?backend ?dt ?(guess = fun _ -> None) ?(gmin = 1e-12) ~proc ~kind
    ~tstop circuit =
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
  let prev = ref x0 in
  for step = 1 to n_steps do
    let time = ts.(step) in
    let x =
      newton_step backend proc kind circuit idx ~gmin ~time ~dt
        ~prev:!prev !prev
    in
    states.(step) <- x;
    prev := x
  done;
  { ts; idx; states }

let times r = r.ts

let waveform r node =
  match Indexing.node_index r.idx node with
  | None -> Array.map (fun _ -> 0.0) r.ts
  | Some i -> Array.map (fun s -> s.(i)) r.states

let value_at r node t =
  let w = waveform r node in
  let pts = Array.mapi (fun i v -> (r.ts.(i), v)) w in
  Phys.Numerics.interp_linear pts t

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
