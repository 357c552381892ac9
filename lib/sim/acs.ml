module C = Linalg.Cx
module Dc = Linalg.Dense_c
module El = Netlist.Element

type node = int option

type stamp = {
  conds : (node * node * float) list;
  caps : (node * node * float) list;
  vccs : (node * node * node * node * float) list;
  (* (out_p, out_n, ctrl_p, ctrl_n, gm): current gm (v_cp - v_cn) flows
     out_p -> out_n *)
  vrows : (int * node * node * float) list; (* (row, p, n, ac magnitude) *)
  irhs : (node * node * float) list;        (* current p -> n, magnitude *)
}

type t = {
  idx : Indexing.t;
  stamp : stamp;
  base : Dc.t;
      (* frequency-independent part of Y (conductances, vccs, vsource rows,
         gmin diagonal) assembled once; per-frequency factorisation blits
         this and adds only the j w C entries on top *)
}

let cx re = { Complex.re; im = 0.0 }

(* Componentwise 4-point stamp on the split-plane matrix.  The signed-zero
   components matter: [Complex.neg {re; im=0.}] is [{-re; -0.}], and the
   reference assembly folds those -0. additions into the planes, so the
   kernel assembly must add the exact same signed components to stay
   bit-identical. *)
let quad_c y p q ~re ~im =
  (match p with Some i -> Dc.add_to y i i ~re ~im | None -> ());
  (match q with Some j -> Dc.add_to y j j ~re ~im | None -> ());
  (match (p, q) with
   | Some i, Some j ->
     Dc.add_to y i j ~re:(-.re) ~im:(-.im);
     Dc.add_to y j i ~re:(-.re) ~im:(-.im)
   | Some _, None | None, Some _ | None, None -> ())

(* The frequency-independent entries, in exactly the reference [assemble]
   order minus the capacitor pass (moving the j w C additions last is
   bit-safe: capacitors touch the real plane only with signed zeros, and
   all other stamps touch the imaginary plane only with signed zeros, so
   no rounding-relevant addition is reordered). *)
let build_base idx stamp =
  let n = Indexing.size idx in
  let y = Dc.create n in
  List.iter (fun (p, q, g) -> quad_c y p q ~re:g ~im:0.0) stamp.conds;
  List.iter
    (fun (op, on, cp, cn, gm) ->
      let add_out out sign =
        match out with
        | None -> ()
        | Some i ->
          (match cp with
           | Some j ->
             if sign then Dc.add_to y i j ~re:gm ~im:0.0
             else Dc.add_to y i j ~re:(-.gm) ~im:(-0.0)
           | None -> ());
          (match cn with
           | Some j ->
             if sign then Dc.add_to y i j ~re:(-.gm) ~im:(-0.0)
             else Dc.add_to y i j ~re:gm ~im:0.0
           | None -> ())
      in
      add_out op true;
      add_out on false)
    stamp.vccs;
  List.iter
    (fun (k, p, q, _ac) ->
      (match p with
       | Some i ->
         Dc.add_to y i k ~re:1.0 ~im:0.0;
         Dc.add_to y k i ~re:1.0 ~im:0.0
       | None -> ());
      (match q with
       | Some j ->
         Dc.add_to y j k ~re:(-1.0) ~im:(-0.0);
         Dc.add_to y k j ~re:(-1.0) ~im:(-0.0)
       | None -> ()))
    stamp.vrows;
  (* tiny gmin keeps Y regular at very low frequency on isolated nodes *)
  for i = 0 to Indexing.node_count idx - 1 do
    Dc.add_to y i i ~re:1e-15 ~im:0.0
  done;
  y

let prepare dcop =
  let idx = Dcop.indexing dcop in
  let circuit = Dcop.circuit dcop in
  let ni name = Indexing.node_index idx name in
  (* plain mutable accumulators: one cons per stamp instead of a record
     copy per stamp (the lists stay in prepend order; [assemble] and
     [build_base] iterate them in that reversed element order) *)
  let conds = ref [] and caps = ref [] and vccs = ref [] in
  let vrows = ref [] and irhs = ref [] in
  let add_cond p n g = conds := (p, n, g) :: !conds in
  let add_cap p n c = if c > 0.0 then caps := (p, n, c) :: !caps in
  let add_vccs op on cp cn gm =
    if gm <> 0.0 then vccs := (op, on, cp, cn, gm) :: !vccs
  in
  let handle = function
    | El.Resistor { p; n; r; _ } -> add_cond (ni p) (ni n) (1.0 /. r)
    | El.Capacitor { p; n; c; _ } -> add_cap (ni p) (ni n) c
    | El.Isource { p; n; i; _ } ->
      if i.El.ac <> 0.0 then irhs := (ni p, ni n, i.El.ac) :: !irhs
    | El.Vsource { name; p; n; v; _ } ->
      let k = Indexing.vsource_index idx name in
      vrows := (k, ni p, ni n, v.El.ac) :: !vrows
    | El.Mos { dev; d; g; s; b } ->
      let op = Dcop.device_op dcop dev.Device.Mos.name in
      let e = op.Device.Op.eval and cc = op.Device.Op.caps in
      let nd = ni d and ng = ni g and ns = ni s and nb = ni b in
      add_cond nd ns e.Device.Model.gds;
      add_vccs nd ns ng ns e.Device.Model.gm;
      add_vccs nd ns nb ns e.Device.Model.gmb;
      add_cap ng ns cc.Device.Caps.cgs;
      add_cap ng nd cc.Device.Caps.cgd;
      add_cap ng nb cc.Device.Caps.cgb;
      add_cap nd nb cc.Device.Caps.cdb;
      add_cap ns nb cc.Device.Caps.csb
  in
  List.iter handle (Netlist.Circuit.elements circuit);
  let stamp =
    { conds = !conds; caps = !caps; vccs = !vccs; vrows = !vrows;
      irhs = !irhs }
  in
  { idx; stamp; base = build_base idx stamp }

type factored =
  | F_ref of { net : t; lu : C.lu }
  | F_ws of {
      net : t;
      freq : float;
      mutable ws : Linalg.Ws.cx;
      mutable serial : int;
          (* the workspace generation this token's factorisation lives in;
             when another frequency (or another net of the same size) has
             re-factored the domain's workspace since — or the token
             migrated to a different domain — the solve transparently
             re-factors first *)
    }

let net_of = function
  | F_ref { net; _ } -> net
  | F_ws { net; _ } -> net

let assemble net ~freq =
  let n = Indexing.size net.idx in
  let y = C.create n n in
  let quad p q v =
    (* conductance-style 4-point stamp *)
    let add i j x = C.add_to y i j x in
    (match p with Some i -> add i i v | None -> ());
    (match q with Some j -> add j j v | None -> ());
    (match (p, q) with
     | Some i, Some j ->
       add i j (Complex.neg v);
       add j i (Complex.neg v)
     | Some _, None | None, Some _ | None, None -> ())
  in
  List.iter (fun (p, q, g) -> quad p q (cx g)) net.stamp.conds;
  let w = 2.0 *. Float.pi *. freq in
  List.iter
    (fun (p, q, c) -> quad p q { Complex.re = 0.0; im = w *. c })
    net.stamp.caps;
  List.iter
    (fun (op, on, cp, cn, gm) ->
      let g = cx gm in
      let add_out out sign =
        match out with
        | None -> ()
        | Some i ->
          (match cp with Some j -> C.add_to y i j (if sign then g else Complex.neg g) | None -> ());
          (match cn with Some j -> C.add_to y i j (if sign then Complex.neg g else g) | None -> ())
      in
      add_out op true;
      add_out on false)
    net.stamp.vccs;
  List.iter
    (fun (k, p, q, _ac) ->
      (match p with
       | Some i ->
         C.add_to y i k Complex.one;
         C.add_to y k i Complex.one
       | None -> ());
      (match q with
       | Some j ->
         C.add_to y j k (Complex.neg Complex.one);
         C.add_to y k j (Complex.neg Complex.one)
       | None -> ()))
    net.stamp.vrows;
  (* tiny gmin keeps Y regular at very low frequency on isolated nodes *)
  for i = 0 to Indexing.node_count net.idx - 1 do
    C.add_to y i i (cx 1e-15)
  done;
  y

(* Blit the static base over the workspace matrix, add the j w C entries
   and factor in place. *)
let factor_ws net (ws : Linalg.Ws.cx) ~freq =
  Dc.blit ~src:net.base ~dst:ws.Linalg.Ws.y;
  let w = 2.0 *. Float.pi *. freq in
  List.iter
    (fun (p, q, c) -> quad_c ws.Linalg.Ws.y p q ~re:0.0 ~im:(w *. c))
    net.stamp.caps;
  Dc.lu_factor_in_place ws.Linalg.Ws.y ~piv:ws.Linalg.Ws.cpiv;
  ws.Linalg.Ws.serial <- ws.Linalg.Ws.serial + 1

let factor ?backend net ~freq =
  if (Obs.Config.enabled ()) then Obs.Metrics.incr "sim.acs.factorizations";
  match Option.value backend ~default:Stamps.Kernel with
  | Stamps.Reference -> F_ref { net; lu = C.lu_factor (assemble net ~freq) }
  | Stamps.Kernel ->
    let ws = Linalg.Ws.cx (Indexing.size net.idx) in
    factor_ws net ws ~freq;
    F_ws { net; freq; ws; serial = ws.Linalg.Ws.serial }

let factor_result ?backend net ~freq =
  match factor ?backend net ~freq with
  | f -> Ok f
  | exception e ->
    (match Sim_error.of_exn ~analysis:"acs.factor" e with
     | Some err -> Error err
     | None -> raise e)

let rhs_sources net =
  let n = Indexing.size net.idx in
  let j = Array.make n Complex.zero in
  List.iter
    (fun (p, q, mag) ->
      (* current p -> n: leaves p, enters n *)
      (match p with Some i -> j.(i) <- Complex.sub j.(i) (cx mag) | None -> ());
      (match q with Some i -> j.(i) <- Complex.add j.(i) (cx mag) | None -> ()))
    net.stamp.irhs;
  List.iter (fun (k, _, _, ac) -> j.(k) <- cx ac) net.stamp.vrows;
  j

(* The current domain's workspace holding this token's factorisation,
   re-assembled on demand when the workspace has moved on (another
   frequency factored in between, or the token crossed domains).  The
   re-factorisation is deterministic, so results never depend on whether
   it happened. *)
let ensure_ws t =
  match t with
  | F_ws r ->
    let ws = Linalg.Ws.cx (Indexing.size r.net.idx) in
    if ws != r.ws || ws.Linalg.Ws.serial <> r.serial then begin
      if (Obs.Config.enabled ()) then Obs.Metrics.incr "sim.acs.ws_refactors";
      factor_ws r.net ws ~freq:r.freq;
      r.ws <- ws;
      r.serial <- ws.Linalg.Ws.serial
    end;
    ws
  | F_ref _ -> invalid_arg "Acs.ensure_ws"

let solve_ws net (ws : Linalg.Ws.cx) =
  Dc.lu_solve_into ws.Linalg.Ws.y ~piv:ws.Linalg.Ws.cpiv
    ~b_re:ws.Linalg.Ws.b_re ~b_im:ws.Linalg.Ws.b_im
    ~x_re:ws.Linalg.Ws.x_re ~x_im:ws.Linalg.Ws.x_im;
  let n = Indexing.size net.idx in
  Array.init n (fun i ->
    { Complex.re = ws.Linalg.Ws.x_re.(i); im = ws.Linalg.Ws.x_im.(i) })

(* Same right-hand side as [rhs_sources], written componentwise into the
   workspace's split planes (the imaginary parts of all AC sources are
   zero). *)
let fill_sources net ~b_re ~b_im =
  let n = Indexing.size net.idx in
  Array.fill b_re 0 n 0.0;
  Array.fill b_im 0 n 0.0;
  List.iter
    (fun (p, q, mag) ->
      (match p with Some i -> b_re.(i) <- b_re.(i) -. mag | None -> ());
      (match q with Some i -> b_re.(i) <- b_re.(i) +. mag | None -> ()))
    net.stamp.irhs;
  List.iter
    (fun (k, _, _, ac) ->
      b_re.(k) <- ac;
      b_im.(k) <- 0.0)
    net.stamp.vrows

let solve_sources f =
  if (Obs.Config.enabled ()) then Obs.Metrics.incr "sim.acs.solves";
  match f with
  | F_ref { net; lu } -> C.lu_solve lu (rhs_sources net)
  | F_ws { net; _ } ->
    let ws = ensure_ws f in
    fill_sources net ~b_re:ws.Linalg.Ws.b_re ~b_im:ws.Linalg.Ws.b_im;
    solve_ws net ws

let fill_injection net ~p ~n ~b_re ~b_im =
  let nn = Indexing.size net.idx in
  Array.fill b_re 0 nn 0.0;
  Array.fill b_im 0 nn 0.0;
  (match Indexing.node_index net.idx p with
   | Some i -> b_re.(i) <- b_re.(i) -. 1.0
   | None -> ());
  (match Indexing.node_index net.idx n with
   | Some i -> b_re.(i) <- b_re.(i) +. 1.0
   | None -> ())

let solve_injection f ~p ~n =
  if (Obs.Config.enabled ()) then Obs.Metrics.incr "sim.acs.solves";
  match f with
  | F_ref { net; lu } ->
    let nn = Indexing.size net.idx in
    let j = Array.make nn Complex.zero in
    (match Indexing.node_index net.idx p with
     | Some i -> j.(i) <- Complex.sub j.(i) Complex.one
     | None -> ());
    (match Indexing.node_index net.idx n with
     | Some i -> j.(i) <- Complex.add j.(i) Complex.one
     | None -> ());
    C.lu_solve lu j
  | F_ws { net; _ } ->
    let ws = ensure_ws f in
    fill_injection net ~p ~n ~b_re:ws.Linalg.Ws.b_re ~b_im:ws.Linalg.Ws.b_im;
    solve_ws net ws

let voltage net x name =
  match Indexing.node_index net.idx name with
  | None -> Complex.zero
  | Some i -> x.(i)

let injection_gain2 f ~p ~n ~out =
  match f with
  | F_ref _ ->
    Complex.norm2 (voltage (net_of f) (solve_injection f ~p ~n) out)
  | F_ws { net; _ } ->
    if (Obs.Config.enabled ()) then Obs.Metrics.incr "sim.acs.solves";
    let ws = ensure_ws f in
    fill_injection net ~p ~n ~b_re:ws.Linalg.Ws.b_re ~b_im:ws.Linalg.Ws.b_im;
    Dc.lu_solve_into ws.Linalg.Ws.y ~piv:ws.Linalg.Ws.cpiv
      ~b_re:ws.Linalg.Ws.b_re ~b_im:ws.Linalg.Ws.b_im
      ~x_re:ws.Linalg.Ws.x_re ~x_im:ws.Linalg.Ws.x_im;
    (match Indexing.node_index net.idx out with
     | None -> 0.0
     | Some o ->
       let re = ws.Linalg.Ws.x_re.(o) and im = ws.Linalg.Ws.x_im.(o) in
       (re *. re) +. (im *. im))

let observe_transfer t0 =
  if (Obs.Config.enabled ()) then
    Obs.Metrics.observe "sim.acs.solve_us" (Obs.Clock.monotonic_us () -. t0)

let transfer ?backend net ~freq ~out =
  let t0 = Obs.Clock.monotonic_us () in
  let f = factor ?backend net ~freq in
  let v = voltage net (solve_sources f) out in
  observe_transfer t0;
  v

let transfer_result ?backend net ~freq ~out =
  let t0 = Obs.Clock.monotonic_us () in
  Result.map
    (fun f ->
      let v = voltage net (solve_sources f) out in
      observe_transfer t0;
      v)
    (factor_result ?backend net ~freq)

let output_impedance ?backend net ~freq ~out =
  let f = factor ?backend net ~freq in
  voltage net (solve_injection f ~p:Netlist.Element.ground ~n:out) out
