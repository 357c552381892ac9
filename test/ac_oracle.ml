(* The small-signal AC analysis as one complex LU of Y(jw) = G + jwC per
   frequency point, on the boxed functor [Linalg.Cx]: the oracle that
   [Sim.Acs]'s Hessenberg reduction is checked against.  It stamps the
   linearised network independently of [Sim.Acs] (same element models,
   same 1e-15 S AC gmin) and solves every point from scratch.  Noise
   injects a unit current per noisy element, as the analysis did before
   the adjoint form. *)

module C = Linalg.Cx
module El = Netlist.Element

type node = int option

type t = {
  idx : Sim.Indexing.t;
  conds : (node * node * float) list;
  caps : (node * node * float) list;
  vccs : (node * node * node * node * float) list;
  (* (out_p, out_n, ctrl_p, ctrl_n, gm): current gm (v_cp - v_cn) flows
     out_p -> out_n *)
  vrows : (int * node * node * float) list;  (* (row, p, n, ac magnitude) *)
  irhs : (node * node * float) list;         (* current p -> n, magnitude *)
}

let cx re = { Complex.re; im = 0.0 }

let prepare dcop =
  let idx = Sim.Dcop.indexing dcop in
  let ni name = Sim.Indexing.node_index idx name in
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
      let k = Sim.Indexing.vsource_index idx name in
      vrows := (k, ni p, ni n, v.El.ac) :: !vrows
    | El.Mos { dev; d; g; s; b } ->
      let op = Sim.Dcop.device_op dcop dev.Device.Mos.name in
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
  List.iter handle (Netlist.Circuit.elements (Sim.Dcop.circuit dcop));
  { idx; conds = !conds; caps = !caps; vccs = !vccs; vrows = !vrows;
    irhs = !irhs }

let assemble net ~freq =
  let n = Sim.Indexing.size net.idx in
  let y = C.create n n in
  let quad p q v =
    (match p with Some i -> C.add_to y i i v | None -> ());
    (match q with Some j -> C.add_to y j j v | None -> ());
    match (p, q) with
    | Some i, Some j ->
      C.add_to y i j (Complex.neg v);
      C.add_to y j i (Complex.neg v)
    | Some _, None | None, Some _ | None, None -> ()
  in
  List.iter (fun (p, q, g) -> quad p q (cx g)) net.conds;
  let w = 2.0 *. Float.pi *. freq in
  List.iter (fun (p, q, c) -> quad p q { Complex.re = 0.0; im = w *. c }) net.caps;
  List.iter
    (fun (op, on, cp, cn, gm) ->
      let g = cx gm in
      let add_out out sign =
        match out with
        | None -> ()
        | Some i ->
          Option.iter (fun j -> C.add_to y i j (if sign then g else Complex.neg g)) cp;
          Option.iter (fun j -> C.add_to y i j (if sign then Complex.neg g else g)) cn
      in
      add_out op true;
      add_out on false)
    net.vccs;
  List.iter
    (fun (k, p, q, _) ->
      Option.iter (fun i -> C.add_to y i k Complex.one; C.add_to y k i Complex.one) p;
      Option.iter
        (fun j ->
          C.add_to y j k (Complex.neg Complex.one);
          C.add_to y k j (Complex.neg Complex.one))
        q)
    net.vrows;
  for i = 0 to Sim.Indexing.node_count net.idx - 1 do
    C.add_to y i i (cx 1e-15)
  done;
  y

let rhs_sources net =
  let j = Array.make (Sim.Indexing.size net.idx) Complex.zero in
  List.iter
    (fun (p, q, mag) ->
      Option.iter (fun i -> j.(i) <- Complex.sub j.(i) (cx mag)) p;
      Option.iter (fun i -> j.(i) <- Complex.add j.(i) (cx mag)) q)
    net.irhs;
  List.iter (fun (k, _, _, ac) -> j.(k) <- cx ac) net.vrows;
  j

let voltage net x name =
  match Sim.Indexing.node_index net.idx name with
  | None -> Complex.zero
  | Some i -> x.(i)

(* Every unknown's response to the AC sources.  Raises [Linalg.Singular]
   like the analysis. *)
let solve_sources net ~freq = C.solve (assemble net ~freq) (rhs_sources net)

let transfer net ~freq ~out = voltage net (solve_sources net ~freq) out

(* The largest node phasor of the response: the scale a normwise
   relative error is measured against, since a node the sources cannot
   reach reads 0 in the oracle and rounding noise in any other method. *)
let node_scale net ~freq =
  let x = solve_sources net ~freq in
  let m = ref 0.0 in
  for i = 0 to Sim.Indexing.node_count net.idx - 1 do
    m := Float.max !m (Complex.norm x.(i))
  done;
  !m

let injection net ~p ~n =
  let j = Array.make (Sim.Indexing.size net.idx) Complex.zero in
  Option.iter (fun i -> j.(i) <- Complex.sub j.(i) Complex.one)
    (Sim.Indexing.node_index net.idx p);
  Option.iter (fun i -> j.(i) <- Complex.add j.(i) Complex.one)
    (Sim.Indexing.node_index net.idx n);
  j

let output_impedance net ~freq ~out =
  voltage net (C.solve (assemble net ~freq) (injection net ~p:El.ground ~n:out)) out

(* Total output noise PSD at [freq]: one injection solve per noisy
   element on the factored Y(jw). *)
let output_psd dcop net ~out ~freq =
  let lu = C.lu_factor (assemble net ~freq) in
  let gain2 ~p ~n = Complex.norm2 (voltage net (C.lu_solve lu (injection net ~p ~n)) out) in
  let proc = Sim.Dcop.process dcop in
  List.fold_left
    (fun acc e ->
      match e with
      | El.Mos { dev; d; s; _ } ->
        let ev = (Sim.Dcop.device_op dcop dev.Device.Mos.name).Device.Op.eval in
        let params = Device.Mos.params proc dev in
        let psd =
          Device.Noise.thermal_current_psd ev.Device.Model.gm
          +. Device.Noise.flicker_current_psd params ~l:dev.Device.Mos.l
               ~ids:ev.Device.Model.ids ~freq
        in
        acc +. (psd *. gain2 ~p:d ~n:s)
      | El.Resistor { p; n; r; _ } ->
        acc
        +. 4.0 *. Phys.Const.boltzmann *. Phys.Const.room_temperature /. r
           *. gain2 ~p ~n
      | El.Capacitor _ | El.Isource _ | El.Vsource _ -> acc)
    0.0
    (Netlist.Circuit.elements (Sim.Dcop.circuit dcop))

let input_referred_psd dcop net ~out ~freq =
  output_psd dcop net ~out ~freq /. Complex.norm2 (transfer net ~freq ~out)

(* The unity-gain frequency as [Sim.Measure.unity_gain_freq] finds it:
   first sign change of log |H| on the 121-point log grid from 1 Hz to
   100 GHz, refined by Brent in log frequency. *)
let unity_gain_freq net ~out =
  let g u = log (Complex.norm (transfer net ~freq:(exp u) ~out)) in
  let us = Phys.Numerics.linspace (log 1.0) (log 1e11) 121 in
  Option.map
    (fun (a, fa, b, fb) -> exp (Phys.Numerics.brent ~tol:1e-9 ~fa ~fb ~f:g a b))
    (Phys.Numerics.scan_bracket ~f:g us)

let phase_margin_at net ~out fu =
  let ph = Complex.arg (transfer net ~freq:fu ~out) *. 180.0 /. Float.pi in
  180.0 +. (if ph > 90.0 then ph -. 360.0 else ph)
