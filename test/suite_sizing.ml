open Helpers
module Spec = Comdiac.Spec
module Par = Comdiac.Parasitics
module FC = Comdiac.Folded_cascode
module Perf = Comdiac.Performance
module M = Device.Model
module F = Device.Folding
module P = Technology.Process

let proc = P.c06
let kind = M.Bsim_lite
let spec = Spec.paper_ota

(* sizing is deterministic; share one design per parasitic state *)
let design_none = lazy (FC.size ~proc ~kind ~spec ~parasitics:Par.none)
let design_nf1 = lazy (FC.size ~proc ~kind ~spec ~parasitics:Par.single_fold)

let tb_of design =
  Comdiac.Testbench.make ~proc ~kind ~spec design.FC.amp

(* --- spec -------------------------------------------------------------- *)

let test_spec_validate () =
  Alcotest.(check bool) "paper spec valid" true (Spec.validate spec = Ok ());
  let bad = { spec with Spec.gbw = -1.0 } in
  Alcotest.(check bool) "negative gbw rejected" true (Spec.validate bad <> Ok ());
  let bad2 = { spec with Spec.output_range = (0.5, 4.0) } in
  Alcotest.(check bool) "swing above supply rejected" true
    (Spec.validate bad2 <> Ok ());
  List.iter
    (fun (what, bad) ->
      Alcotest.(check bool) (what ^ " rejected") true
        (Spec.validate bad <> Ok ()))
    [
      ("nan gbw", { spec with Spec.gbw = Float.nan });
      ("infinite load", { spec with Spec.cload = Float.infinity });
      ("nan phase margin", { spec with Spec.phase_margin = Float.nan });
      ("nan range bound", { spec with Spec.icmr = (Float.nan, 1.0) });
    ]

let test_spec_derived () =
  check_close ~rel:1e-9 "vcm" 0.645 (Spec.input_common_mode spec);
  check_close ~rel:1e-9 "out_q" 1.41 (Spec.output_quiescent spec)

(* --- parasitics --------------------------------------------------------- *)

let test_parasitics_defaults () =
  Alcotest.(check int) "none assumes one fold" 1 (Par.style_of Par.none "P1").F.nf;
  Alcotest.(check int) "single fold assumes one fold" 1
    (Par.style_of Par.single_fold "P1").F.nf;
  check_close "no node caps" 0.0 (Par.node_cap Par.none "out")

let test_parasitics_exact () =
  let style = { F.nf = 6; drain_internal = true } in
  let geom = F.geometry proc ~w:60e-6 style in
  let p =
    Par.exact ~node_caps:[ ("out", 0.1e-12) ] ~styles:[ ("P1", style) ]
      ~drains:[ ("P1", geom) ] ()
  in
  Alcotest.(check int) "style picked up" 6 (Par.style_of p "P1").F.nf;
  Alcotest.(check int) "unknown device defaults" 1 (Par.style_of p "N5").F.nf;
  check_close "node cap" 0.1e-12 (Par.node_cap p "out");
  let dev = Device.Mos.make ~name:"P1" ~mtype:Technology.Electrical.Pmos
      ~w:60e-6 ~l:1e-6 () in
  let dev' = Par.apply_to_device p dev in
  Alcotest.(check int) "device restyled" 6 dev'.Device.Mos.style.F.nf;
  Alcotest.(check bool) "diffusion overridden" true
    (dev'.Device.Mos.diffusion <> None)

let test_parasitics_distance () =
  check_close "self distance" 0.0 (Par.max_distance Par.none Par.none);
  let p1 = Par.exact ~node_caps:[ ("out", 1e-13) ] ~styles:[] ~drains:[] () in
  let p2 = Par.exact ~node_caps:[ ("out", 2e-13) ] ~styles:[] ~drains:[] () in
  check_close ~rel:1e-9 "cap distance" 0.5 (Par.max_distance p1 p2)

(* --- performance record -------------------------------------------------- *)

let test_performance_rows () =
  Alcotest.(check int) "eleven rows (Table 1)" 11 (List.length Perf.row_labels)

(* --- folded cascode sizing ------------------------------------------------ *)

let test_sizing_basic () =
  let d = Lazy.force design_none in
  Alcotest.(check int) "eleven devices" 11
    (List.length (Comdiac.Amp.mos_devices d.FC.amp));
  Alcotest.(check bool) "i2 above i1" true (d.FC.i2 > d.FC.i1);
  Alcotest.(check bool) "currents positive" true (d.FC.i1 > 1e-6);
  List.iter
    (fun dev ->
      Alcotest.(check bool)
        (dev.Device.Mos.name ^ " width above minimum") true
        (dev.Device.Mos.w >= P.wmin proc);
      Alcotest.(check bool)
        (dev.Device.Mos.name ^ " length above minimum") true
        (dev.Device.Mos.l >= P.lmin proc *. 0.999))
    (Comdiac.Amp.mos_devices d.FC.amp);
  List.iter
    (fun (net, v) ->
      check_in_range ("bias " ^ net ^ " inside rails") 0.0 spec.Spec.vdd v)
    d.FC.amp.Comdiac.Amp.bias_sources

let test_sizing_device_names () =
  let d = Lazy.force design_none in
  let names =
    List.map (fun dev -> dev.Device.Mos.name) (Comdiac.Amp.mos_devices d.FC.amp)
  in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    FC.device_names

let test_sizing_all_saturated () =
  let d = Lazy.force design_none in
  let tb = tb_of d in
  let dc = Comdiac.Testbench.operating_point tb in
  List.iter
    (fun (name, op) ->
      let region = op.Device.Op.eval.M.region in
      if region <> M.Saturation then
        Alcotest.failf "%s not saturated: %s" name (M.region_to_string region))
    (Sim.Dcop.device_ops dc)

let test_sizing_currents_realised () =
  (* the DC simulation must carry roughly the planned currents *)
  let d = Lazy.force design_none in
  let tb = tb_of d in
  let dc = Comdiac.Testbench.operating_point tb in
  let ids name = (Sim.Dcop.device_op dc name).Device.Op.eval.M.ids in
  check_close ~rel:0.12 "input branch current" d.FC.i1 (ids "P1");
  check_close ~rel:0.12 "cascode branch current" d.FC.i2 (ids "N2C");
  check_close ~rel:0.12 "tail current" (2.0 *. d.FC.i1) (ids "TAIL")

let test_sizing_responds_to_spec () =
  let d_fast =
    FC.size ~proc ~kind ~spec:{ spec with Spec.gbw = 130e6 }
      ~parasitics:Par.none
  in
  let d = Lazy.force design_none in
  Alcotest.(check bool) "double gbw needs more current" true
    (d_fast.FC.i1 > 1.5 *. d.FC.i1);
  let d_heavy =
    FC.size ~proc ~kind ~spec:{ spec with Spec.cload = 9e-12 }
      ~parasitics:Par.none
  in
  Alcotest.(check bool) "triple load needs more current" true
    (d_heavy.FC.i1 > 2.0 *. d.FC.i1)

let test_sizing_parasitic_awareness () =
  (* assuming single-fold junctions inflates the assumed output cap, so the
     sizing spends more current than the no-parasitic case *)
  let d0 = Lazy.force design_none in
  let d1 = Lazy.force design_nf1 in
  Alcotest.(check bool) "diffusion-aware sizing uses more current" true
    (d1.FC.i1 +. d1.FC.i2 > d0.FC.i1 +. d0.FC.i2)

let test_sizing_rejects_bad_spec () =
  let bad = { spec with Spec.icmr = (0.0, 3.2) } in
  Alcotest.(check bool) "impossible ICMR rejected" true
    (match FC.size ~proc ~kind ~spec:bad ~parasitics:Par.none with
     | exception Failure _ -> true
     | _ -> false)

let test_drain_currents () =
  let d = Lazy.force design_none in
  let currents = FC.drain_currents d in
  Alcotest.(check int) "all devices covered" 11 (List.length currents);
  check_close ~rel:1e-9 "sink carries both branches" (d.FC.i1 +. d.FC.i2)
    (List.assoc "N5" currents);
  List.iter
    (fun name -> ignore (FC.net_of_drain name))
    FC.device_names

(* --- testbench measurements ------------------------------------------------ *)

let test_measurements_plausible () =
  let d = Lazy.force design_none in
  let tb = tb_of d in
  let perf = Comdiac.Testbench.performance tb in
  check_in_range "gain 55..95 dB" 55.0 95.0 perf.Perf.dc_gain_db;
  check_in_range "gbw near target" (0.85 *. spec.Spec.gbw) (1.15 *. spec.Spec.gbw)
    perf.Perf.gbw;
  check_in_range "pm 55..85" 55.0 85.0 perf.Perf.phase_margin;
  check_in_range "cmrr high" 80.0 140.0 perf.Perf.cmrr_db;
  check_in_range "offset sub-mV" (-1e-3) 1e-3 perf.Perf.offset;
  check_in_range "power about 2 mW" 1e-3 4e-3 perf.Perf.power;
  (* slewing cannot exceed the tail current into the load *)
  let sr_max = 1.2 *. d.FC.amp.Comdiac.Amp.tail_current /. spec.Spec.cload in
  check_in_range "slew rate physical" (0.3 *. sr_max) sr_max perf.Perf.slew_rate;
  Alcotest.(check bool) "flicker above thermal at 1 Hz" true
    (perf.Perf.flicker_noise_density > perf.Perf.thermal_noise_density);
  check_in_range "integrated noise" 10e-6 300e-6 perf.Perf.input_noise

let test_power_consistency () =
  let d = Lazy.force design_none in
  let tb = tb_of d in
  let measured = Comdiac.Testbench.power tb in
  let predicted = spec.Spec.vdd *. d.FC.amp.Comdiac.Amp.supply_current in
  check_close ~rel:0.1 "measured vs planned power" predicted measured

(* --- other topologies -------------------------------------------------------- *)

let relaxed =
  { spec with Spec.icmr = (1.2, 2.1); gbw = 25e6; phase_margin = 60.0 }

let test_two_stage () =
  let d =
    Comdiac.Two_stage.size ~proc ~kind ~spec:relaxed
      ~parasitics:Par.single_fold
  in
  let tb = Comdiac.Testbench.make ~proc ~kind ~spec:relaxed d.Comdiac.Two_stage.amp in
  let perf = Comdiac.Testbench.performance tb in
  check_in_range "two-stage gbw" (0.9 *. relaxed.Spec.gbw) (1.1 *. relaxed.Spec.gbw)
    perf.Perf.gbw;
  check_in_range "two-stage pm" 50.0 80.0 perf.Perf.phase_margin;
  Alcotest.(check bool) "two stages give more gain than 5T" true
    (perf.Perf.dc_gain_db > 60.0);
  Alcotest.(check bool) "low output resistance" true
    (perf.Perf.output_resistance < 1e6)

let test_simple_ota () =
  let spec5 = { relaxed with Spec.gbw = 20e6 } in
  let d =
    Comdiac.Simple_ota.size ~proc ~kind ~spec:spec5 ~parasitics:Par.single_fold
  in
  let tb = Comdiac.Testbench.make ~proc ~kind ~spec:spec5 d.Comdiac.Simple_ota.amp in
  let perf = Comdiac.Testbench.performance tb in
  check_in_range "5T gbw" (0.8 *. spec5.Spec.gbw) (1.1 *. spec5.Spec.gbw)
    perf.Perf.gbw;
  check_in_range "5T gain modest" 30.0 55.0 perf.Perf.dc_gain_db;
  Alcotest.(check bool) "single stage very stable" true
    (perf.Perf.phase_margin > 70.0)

let prop_sizing_scales_with_load =
  QCheck.Test.make ~name:"input current grows monotonically with load"
    ~count:8
    QCheck.(pair (float_range 1.0 6.0) (float_range 1.0 6.0))
    (fun (c1, c2) ->
      QCheck.assume (Float.abs (c1 -. c2) > 0.3);
      let size c =
        (FC.size ~proc ~kind ~spec:{ spec with Spec.cload = c *. 1e-12 }
           ~parasitics:Par.none).FC.i1
      in
      (c1 < c2) = (size c1 < size c2))

(* --- slew bench against the full-window oracle ------------------------- *)

module El = Netlist.Element
module Ckt = Netlist.Circuit
module Flow = Core.Flow

(* The earlier slew bench, kept as the oracle of [Testbench.slew_rate]: one
   transient over 11 slew times (settled at v1, step down at t_slew, back
   up at 6 t_slew), with the 10-90% crossings read at time points. *)
let oracle_slew ~proc ~kind ~spec amp =
  let lo, hi = spec.Spec.output_range in
  let v0 = lo +. (0.15 *. (hi -. lo)) and v1 = hi -. (0.15 *. (hi -. lo)) in
  let t_slew = (v1 -. v0) /. (amp.Comdiac.Amp.tail_current /. spec.Spec.cload) in
  let t1 = t_slew and t2 = 6.0 *. t_slew in
  let wave t = if t < t1 then v1 else if t < t2 then v0 else v1 in
  let c = Comdiac.Amp.add_to amp (Ckt.create ~title:"slew oracle") in
  let c = Ckt.add_vsource c ~name:"dd" ~p:"vdd" ~n:El.ground (El.dc_source spec.Spec.vdd) in
  let c = Ckt.add_vsource c ~name:"ip" ~p:"inp" ~n:El.ground (El.wave_source ~dc:v1 wave) in
  let c = Ckt.add_vsource c ~name:"fb" ~p:"inn" ~n:"out" (El.dc_source 0.0) in
  let c = Ckt.add_capacitor c ~name:"load" ~p:"out" ~n:El.ground ~c:spec.Spec.cload in
  let extra = [ ("vdd", spec.Spec.vdd); ("inp", v1); ("inn", v1); ("out", v1) ] in
  let res =
    Sim.Tran.run ~proc ~kind ~tstop:(11.0 *. t_slew) ~dt:(t_slew /. 200.0)
      ~guess:(Comdiac.Amp.guess_fn amp ~extra) c
  in
  let ts = Sim.Tran.times res and w = Sim.Tran.waveform res "out" in
  let n = Array.length w in
  let rec index_at tm i = if i >= n || ts.(i) >= tm then i else index_at tm (i + 1) in
  let rec crossing ~level ~falling i =
    if i >= n then None
    else if (falling && w.(i) <= level) || ((not falling) && w.(i) >= level)
    then Some ts.(i)
    else crossing ~level ~falling (i + 1)
  in
  let dv = v1 -. v0 in
  let edge ~start ~falling =
    let first, second =
      if falling then (v1 -. (0.1 *. dv), v1 -. (0.9 *. dv))
      else (v0 +. (0.1 *. dv), v0 +. (0.9 *. dv))
    in
    match crossing ~level:first ~falling (index_at start 0) with
    | None -> None
    | Some ta ->
      (match crossing ~level:second ~falling (index_at ta 0) with
       | Some tb when tb > ta -> Some (0.8 *. dv /. (tb -. ta))
       | Some _ | None -> None)
  in
  match (edge ~start:t1 ~falling:true, edge ~start:t2 ~falling:false) with
  | Some f, Some r -> Float.min f r
  | Some s, None | None, Some s -> s
  | None, None -> Float.nan

let check_slew_vs_oracle label ~spec amp =
  let tb = Comdiac.Testbench.make ~proc ~kind ~spec amp in
  check_close ~rel:0.01 label
    (oracle_slew ~proc ~kind ~spec amp)
    (Comdiac.Testbench.slew_rate tb)

let check_flow_slews label ~spec (r : Flow.result) =
  check_slew_vs_oracle (label ^ " synthesized") ~spec r.Flow.design.FC.amp;
  check_slew_vs_oracle (label ^ " extracted") ~spec
    (Flow.extracted_amp proc r.Flow.design r.Flow.report)

let test_slew_oracle_table1 () =
  List.iter
    (fun c -> check_flow_slews (Flow.case_label c) ~spec (Flow.run ~proc ~kind ~spec c))
    Flow.all_cases

(* Seeded points of the GBW 30-100 MHz x C_L 1.5-5 pF lattice; points
   whose flow fails (the 45 MHz sizing hole) are drawn past. *)
let test_slew_oracle_lattice () =
  let st = Random.State.make [| 17 |] in
  let rec go ok tries =
    if ok >= 6 || tries >= 30 then ok
    else begin
      let gbw = 30.0 +. (5.0 *. float_of_int (Random.State.int st 15)) in
      let cl = 1.5 +. (0.5 *. float_of_int (Random.State.int st 8)) in
      let c = List.nth Flow.all_cases (Random.State.int st 4) in
      let spec = { spec with Spec.gbw = gbw *. 1e6; cload = cl *. 1e-12 } in
      match Flow.run ~proc ~kind ~spec c with
      | r ->
        check_flow_slews
          (Printf.sprintf "%s @ %g MHz, %g pF" (Flow.case_label c) gbw cl)
          ~spec r;
        go (ok + 1) (tries + 1)
      | exception (Failure _ | Phys.Numerics.No_convergence _) ->
        go ok (tries + 1)
    end
  in
  Alcotest.(check int) "six lattice points sized" 6 (go 0 0)

(* Each edge stops a quarter slew time past its 90% crossing, so the two
   edges together take fewer steps than one 5 t_slew settle window each. *)
let test_slew_early_stop () =
  let tb = tb_of (Lazy.force design_none) in
  Obs.Config.with_enabled true (fun () ->
    Obs.Metrics.reset ();
    Fun.protect ~finally:Obs.Metrics.reset (fun () ->
      ignore (Comdiac.Testbench.slew_rate tb);
      let steps = Obs.Metrics.counter "sim.tran.steps" in
      check_in_range "steps below two settle windows" 1.0 1999.0 steps;
      Alcotest.(check bool) "a Newton iteration per step at least" true
        (Obs.Metrics.counter "sim.tran.newton_iters" >= steps)))

(* One bench plus its GBW: the offset null is one bordered Newton solve,
   the common-mode bench is not built, and the unity-gain scan is
   coarse-to-fine and hands its bracket ends' values to Brent.  These take
   1 DC and 21 AC solves here; the bracket-and-Brent null took 7 DC solves
   and left the output within 1 uV of its target, re-solving the root,
   building the common-mode bench and scanning point by point took 11 DC
   and 92 AC solves. *)
let test_bench_solve_counts () =
  let amp = (Lazy.force design_nf1).FC.amp in
  Obs.Config.with_enabled true (fun () ->
    Obs.Metrics.reset ();
    Fun.protect ~finally:Obs.Metrics.reset (fun () ->
      let tb = Comdiac.Testbench.make ~proc ~kind ~spec amp in
      let dc = Obs.Metrics.counter "sim.dcop.solves" in
      ignore (Comdiac.Testbench.gbw tb);
      let ac = Obs.Metrics.counter "sim.acs.solves" in
      check_in_range "sim.dcop.solves" 1.0 2.0 dc;
      check_in_range "sim.acs.solves" 1.0 21.0 ac;
      (* the operating point is the one at the nulled offset *)
      let target = amp.Comdiac.Amp.quiescent_out in
      check_in_range "output at the quiescent target" (target -. 1e-9)
        (target +. 1e-9)
        (Sim.Dcop.voltage (Comdiac.Testbench.operating_point tb) "out")))

(* --- offset null against the bracket-and-Brent oracle ------------------- *)

module TB = Comdiac.Testbench
module MC = Comdiac.Montecarlo

(* The earlier null, kept as the oracle of the bordered solve: bracket
   the output's crossing of its target with full DC solves at +/-2, 8,
   32 and 128 mV, then Brent on the differential input. *)
let oracle_null ?vcm ~proc ~kind ~spec amp =
  let target = amp.Comdiac.Amp.quiescent_out in
  let guess = Comdiac.Amp.guess_fn amp ~extra:[ ("vdd", spec.Spec.vdd) ] in
  let solved = ref [] in
  let f vdiff =
    let c = TB.open_loop_circuit ?vcm spec amp ~vdiff ~ac_dm:1.0 ~ac_cm:0.0 in
    let dc = Sim.Dcop.solve ~guess ~proc ~kind c in
    solved := (vdiff, dc) :: !solved;
    Sim.Dcop.voltage dc "out" -. target
  in
  let rec bracket w =
    if w > 0.3 then failwith "oracle: cannot bracket the offset"
    else
      let fa = f (-.w) and fb = f w in
      if fa *. fb <= 0.0 then (w, fa, fb) else bracket (w *. 4.0)
  in
  let w, fa, fb = bracket 2e-3 in
  let vos = Phys.Numerics.brent ~tol:1e-9 ~max_iter:80 ~fa ~fb ~f (-.w) w in
  (vos, List.assoc vos !solved)

let oracle_gain_at_vcm ~proc ~kind ~spec amp vcm =
  match oracle_null ~vcm ~proc ~kind ~spec amp with
  | _, dc -> Sim.Measure.dc_gain (Sim.Acs.prepare dc) ~out:"out"
  | exception (Failure _ | Phys.Numerics.No_convergence _) -> 0.0

(* [Testbench.common_mode_range] over the oracle null. *)
let oracle_common_mode_range ?(points = 34) ~proc ~kind ~spec amp =
  let vcms = Phys.Numerics.linspace 0.0 spec.Spec.vdd points in
  let gains = Array.map (oracle_gain_at_vcm ~proc ~kind ~spec amp) vcms in
  let peak = Array.fold_left Float.max 0.0 gains in
  let ok g = g >= peak /. sqrt 2.0 in
  let nominal = Spec.input_common_mode spec in
  let nearest = ref 0 in
  Array.iteri
    (fun i v ->
      if Float.abs (v -. nominal) < Float.abs (vcms.(!nearest) -. nominal)
      then nearest := i)
    vcms;
  let rec down i = if i > 0 && ok gains.(i - 1) then down (i - 1) else i in
  let rec up i = if i < points - 1 && ok gains.(i + 1) then up (i + 1) else i in
  if not (ok gains.(!nearest)) then (nominal, nominal)
  else (vcms.(down !nearest), vcms.(up !nearest))

let rel_close a b =
  (Float.is_nan a && Float.is_nan b) || Phys.Numerics.close ~rel:1e-6 a b

(* Both nulls succeed or both fail; where they succeed the offsets agree
   within 1 nV and the DC gain and GBW within 1e-6. *)
let null_matches_oracle ~spec amp =
  let bench =
    try Some (TB.make ~proc ~kind ~spec amp)
    with Phys.Numerics.No_convergence _ -> None
  in
  let oracle =
    try Some (oracle_null ~proc ~kind ~spec amp)
    with Failure _ | Phys.Numerics.No_convergence _ -> None
  in
  match (bench, oracle) with
  | None, None -> true
  | Some _, None | None, Some _ -> false
  | Some tb, Some (vos, dc) ->
    let net = Sim.Acs.prepare dc in
    let gbw = function Some f -> f | None -> Float.nan in
    Float.abs (TB.offset tb -. vos) <= 1e-9
    && rel_close (TB.dc_gain tb) (Sim.Measure.dc_gain net ~out:"out")
    && rel_close (gbw (TB.gbw tb)) (gbw (Sim.Measure.unity_gain_freq net ~out:"out"))

(* Over random specs of the GBW 30-100 MHz x C_L 1.5-5 pF lattice (the
   45 MHz sizing hole left out, so every flow succeeds) and random Monte
   Carlo seeds and sample indices, for every Table-1 case, synthesized
   and extracted, nominal and mismatched. *)
let prop_null_matches_oracle =
  QCheck.Test.make ~count:3
    ~name:"offset null = bracket-and-Brent oracle (4 cases, MC samples)"
    QCheck.(
      quad (int_range 0 1_000_000) (int_range 0 10_000) (int_range 0 13)
        (int_range 0 7))
    (fun (seed, index, g, c) ->
      let mhz = 30.0 +. (5.0 *. float_of_int (if g >= 3 then g + 1 else g)) in
      let spec =
        { spec with
          Spec.gbw = mhz *. 1e6;
          cload = (1.5 +. (0.5 *. float_of_int c)) *. 1e-12 }
      in
      let case_ok case =
        let r = Flow.run ~proc ~kind ~spec case in
        List.for_all
          (fun amp ->
            List.for_all (null_matches_oracle ~spec)
              (amp
               :: List.init 2 (fun i -> MC.sample_amp ~proc ~seed (index + i) amp)))
          [ r.Flow.design.FC.amp; Flow.extracted_amp proc r.Flow.design r.Flow.report ]
      in
      List.for_all case_ok Flow.all_cases)

(* The measured input common-mode range of the Table-1 designs is the
   oracle's interval. *)
let test_cm_range_oracle () =
  List.iter
    (fun case ->
      let r = Flow.run ~proc ~kind ~spec case in
      List.iter
        (fun (label, amp) ->
          let lo, hi = TB.common_mode_range (TB.make ~proc ~kind ~spec amp) in
          let lo', hi' = oracle_common_mode_range ~proc ~kind ~spec amp in
          let label = Flow.case_label case ^ " " ^ label in
          Alcotest.(check (float 0.0)) (label ^ ": low end") lo' lo;
          Alcotest.(check (float 0.0)) (label ^ ": high end") hi' hi)
        [ ("synthesized", r.Flow.design.FC.amp);
          ("extracted", Flow.extracted_amp proc r.Flow.design r.Flow.report) ])
    Flow.all_cases

(* A bench with no null within 128 mV (input common mode 50 mV below
   VDD) fails as a non-convergence within the null's Newton budget: no
   gmin or source stepping, no other DC solve. *)
let test_null_failure_bounded () =
  let amp = (Lazy.force design_nf1).FC.amp in
  let near_vdd = { spec with Spec.icmr = (3.2, 3.3) } in
  Obs.Config.with_enabled true (fun () ->
    Obs.Metrics.reset ();
    Fun.protect ~finally:Obs.Metrics.reset (fun () ->
      Alcotest.(check bool) "raises No_convergence" true
        (match TB.make ~proc ~kind ~spec:near_vdd amp with
         | exception Phys.Numerics.No_convergence _ -> true
         | _ -> false);
      check_in_range "sim.dcop.newton_iters" 1.0 50.0
        (Obs.Metrics.counter "sim.dcop.newton_iters");
      Alcotest.(check (float 0.0)) "no gmin stepping" 0.0
        (Obs.Metrics.counter "sim.dcop.gmin_stepping_runs");
      Alcotest.(check (float 0.0)) "no source stepping" 0.0
        (Obs.Metrics.counter "sim.dcop.source_stepping_runs")))

let suite =
  ( "sizing",
    [
      case "spec validation" test_spec_validate;
      case "spec derived values" test_spec_derived;
      case "parasitics defaults" test_parasitics_defaults;
      case "parasitics exact" test_parasitics_exact;
      case "parasitics distance" test_parasitics_distance;
      case "performance rows" test_performance_rows;
      case "sizing basics" test_sizing_basic;
      case "device names" test_sizing_device_names;
      case "all devices saturated" test_sizing_all_saturated;
      case "planned currents realised" test_sizing_currents_realised;
      case "sizing responds to spec" test_sizing_responds_to_spec;
      case "parasitic awareness" test_sizing_parasitic_awareness;
      case "impossible spec rejected" test_sizing_rejects_bad_spec;
      case "drain currents for EM" test_drain_currents;
      case "measurements plausible" test_measurements_plausible;
      case "power consistency" test_power_consistency;
      case "two-stage topology" test_two_stage;
      case "simple 5T topology" test_simple_ota;
      case "slew within 1% of the oracle: Table-1 cases" test_slew_oracle_table1;
      case "slew within 1% of the oracle: lattice points" test_slew_oracle_lattice;
      case "slew bench stops each edge early" test_slew_early_stop;
      case "bench + gbw solve counts" test_bench_solve_counts;
      case "common-mode range = oracle: Table-1 cases" test_cm_range_oracle;
      case "failed null is typed and bounded" test_null_failure_bounded;
    ]
    @ qcheck_cases [ prop_sizing_scales_with_load; prop_null_matches_oracle ] )
