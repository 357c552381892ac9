open Helpers
module Flow = Core.Flow
module Bridge = Core.Layout_bridge
module FC = Comdiac.Folded_cascode
module Perf = Comdiac.Performance
module Plan = Cairo_layout.Plan
module Route = Cairo_layout.Route
module Slicing = Cairo_layout.Slicing
module P = Technology.Process

let proc = P.c06
let kind = Device.Model.Bsim_lite
let spec = Comdiac.Spec.paper_ota

(* the four flows are the expensive part of the suite; run each once *)
let results =
  lazy
    (List.map
       (fun case -> (case, Flow.run ~proc ~kind ~spec case))
       Flow.all_cases)

let result case = List.assoc case (Lazy.force results)

(* --- bridge ------------------------------------------------------------- *)

let test_floorplan_structure () =
  let d = FC.size ~proc ~kind ~spec ~parasitics:Comdiac.Parasitics.none in
  let fp = Bridge.floorplan proc d Bridge.default_options in
  Alcotest.(check int) "six groups" 6 (List.length (Slicing.leaves fp));
  let names = List.map Plan.group_name (Slicing.leaves fp) in
  Alcotest.(check bool) "pair group present" true (List.mem "P1/P2" names);
  Alcotest.(check bool) "sink mirror present" true (List.mem "N5:N6" names)

let test_net_requests () =
  let d = FC.size ~proc ~kind ~spec ~parasitics:Comdiac.Parasitics.none in
  let reqs = Bridge.net_requests d in
  let get net = List.find (fun (r : Route.net_request) -> r.Route.net = net) reqs in
  Alcotest.(check bool) "out carries cascode current" true
    ((get "out").Route.current > 0.5 *. d.FC.i2);
  Alcotest.(check bool) "supply carries total current" true
    ((get "vdd").Route.current > d.FC.i1)

(* --- table 1 shape assertions -------------------------------------------- *)

let gbw r which =
  let p = match which with `S -> r.Flow.synthesized | `E -> r.Flow.extracted in
  p.Perf.gbw

let pm r which =
  let p = match which with `S -> r.Flow.synthesized | `E -> r.Flow.extracted in
  p.Perf.phase_margin

let test_case1_shape () =
  let r = result Flow.Case1 in
  Alcotest.(check int) "no layout feedback" 0 r.Flow.layout_calls;
  (* synthesized meets the spec, extraction falls short *)
  check_in_range "synth gbw on target" (0.97 *. spec.Comdiac.Spec.gbw)
    (1.03 *. spec.Comdiac.Spec.gbw) (gbw r `S);
  Alcotest.(check bool) "extracted gbw short by > 3%" true
    (gbw r `E < 0.97 *. gbw r `S);
  Alcotest.(check bool) "extracted pm degrades" true (pm r `E < pm r `S -. 2.0);
  (* DC characteristics unaffected by the missing capacitances *)
  check_close ~rel:0.02 "gain matches extraction"
    r.Flow.synthesized.Perf.dc_gain_db r.Flow.extracted.Perf.dc_gain_db;
  check_close ~rel:0.05 "power matches extraction"
    r.Flow.synthesized.Perf.power r.Flow.extracted.Perf.power

let test_case2_shape () =
  let r1 = result Flow.Case1 and r2 = result Flow.Case2 in
  (* over-estimated diffusion: the real layout folds, so extraction
     exceeds the synthesized view *)
  Alcotest.(check bool) "extracted gbw exceeds synthesized" true
    (gbw r2 `E > gbw r2 `S);
  Alcotest.(check bool) "extracted pm exceeds synthesized" true
    (pm r2 `E >= pm r2 `S -. 0.5);
  (* the price of over-design: less gain, lower rout, more power than
     case 1 *)
  Alcotest.(check bool) "case2 gain below case1" true
    (r2.Flow.synthesized.Perf.dc_gain_db < r1.Flow.synthesized.Perf.dc_gain_db);
  Alcotest.(check bool) "case2 rout below case1" true
    (r2.Flow.synthesized.Perf.output_resistance
     < r1.Flow.synthesized.Perf.output_resistance);
  Alcotest.(check bool) "case2 burns more power" true
    (r2.Flow.synthesized.Perf.power > r1.Flow.synthesized.Perf.power)

let test_case3_shape () =
  let r = result Flow.Case3 in
  Alcotest.(check bool) "layout loop ran" true (r.Flow.layout_calls >= 2);
  (* close, but the neglected routing still costs a little *)
  Alcotest.(check bool) "small shortfall" true
    (gbw r `E < gbw r `S && gbw r `E > 0.93 *. gbw r `S)

let test_case4_shape () =
  let r = result Flow.Case4 in
  check_in_range "layout calls about three" 2.0 6.0
    (float_of_int r.Flow.layout_calls);
  (* the headline result: synthesized matches extracted and meets spec *)
  check_close ~rel:0.02 "gbw synth = extracted" (gbw r `S) (gbw r `E);
  check_in_range "extracted gbw meets spec" (0.97 *. spec.Comdiac.Spec.gbw)
    (1.05 *. spec.Comdiac.Spec.gbw) (gbw r `E);
  Alcotest.(check bool) "extracted pm meets spec" true
    (pm r `E >= spec.Comdiac.Spec.phase_margin -. 1.0);
  check_close ~rel:0.03 "pm synth = extracted" (pm r `S) (pm r `E);
  check_close ~rel:0.03 "gain synth = extracted"
    r.Flow.synthesized.Perf.dc_gain_db r.Flow.extracted.Perf.dc_gain_db

let test_case_ordering () =
  (* extracted GBW: case4 closest to target, case1 worst *)
  let err case =
    Float.abs (gbw (result case) `E -. spec.Comdiac.Spec.gbw)
  in
  Alcotest.(check bool) "case4 beats case1" true (err Flow.Case4 < err Flow.Case1);
  Alcotest.(check bool) "case3 beats case1" true (err Flow.Case3 < err Flow.Case1)

(* --- extracted view --------------------------------------------------------- *)

let test_extracted_amp_details () =
  let r = result Flow.Case4 in
  let amp = Core.Flow.extracted_amp proc r.Flow.design r.Flow.report in
  (* devices folded and snapped to the lambda grid per finger *)
  List.iter
    (fun dev ->
      let nf = dev.Device.Mos.style.Device.Folding.nf in
      Alcotest.(check bool) (dev.Device.Mos.name ^ " folded") true (nf >= 2);
      let wf = dev.Device.Mos.w /. float_of_int nf in
      let lambda = proc.P.lambda in
      let snapped = Float.rem (wf /. lambda) 1.0 in
      Alcotest.(check bool)
        (dev.Device.Mos.name ^ " finger on grid")
        true
        (snapped < 1e-6 || snapped > 1.0 -. 1e-6))
    (Comdiac.Amp.mos_devices amp);
  (* coupling capacitors present *)
  let couplings =
    List.filter
      (function
        | Netlist.Element.Capacitor { name; _ } ->
          String.length name >= 3 && String.sub name 0 3 = "cc_"
        | Netlist.Element.Mos _ | Netlist.Element.Resistor _
        | Netlist.Element.Isource _ | Netlist.Element.Vsource _ -> false)
      amp.Comdiac.Amp.devices
  in
  Alcotest.(check bool) "coupling capacitors extracted" true (couplings <> [])

let test_layout_report_sanity () =
  let r = result Flow.Case4 in
  let report = r.Flow.report in
  Alcotest.(check bool) "generation emitted a cell" true
    (report.Plan.cell <> None);
  Alcotest.(check int) "all devices styled" 11
    (List.length report.Plan.device_styles);
  (* drains internal on the cascodes feeding the output (frequency
     optimisation, paper Fig. 5 discussion) *)
  List.iter
    (fun name ->
      let style = List.assoc name report.Plan.device_styles in
      Alcotest.(check bool) (name ^ " drain internal") true
        style.Device.Folding.drain_internal;
      Alcotest.(check bool) (name ^ " even folds") true
        (style.Device.Folding.nf mod 2 = 0))
    [ "N1C"; "N2C"; "P3C"; "P4C" ];
  (* the floating well of the input pair loads the tail *)
  match Plan.find_net report "tail" with
  | None -> Alcotest.fail "tail net missing from report"
  | Some s -> Alcotest.(check bool) "tail well cap" true (s.Plan.well_cap > 0.0)

(* --- traditional flow --------------------------------------------------------- *)

let test_traditional_flow () =
  let r = Core.Traditional.run ~proc ~kind ~spec () in
  Alcotest.(check bool) "converged" true r.Core.Traditional.converged;
  check_in_range "needed a few full layouts" 2.0 8.0
    (float_of_int r.Core.Traditional.full_layouts);
  Alcotest.(check bool) "every iteration simulated" true
    (r.Core.Traditional.extracted_simulations = r.Core.Traditional.full_layouts);
  (* the proposed flow reaches spec without any full-layout iteration
     loops: its only generation run is the final one *)
  let r4 = result Flow.Case4 in
  Alcotest.(check bool) "proposed flow avoids layout iterations" true
    (r4.Flow.layout_calls <= r.Core.Traditional.full_layouts + 1)

let suite =
  ( "core",
    [
      case "floorplan structure" test_floorplan_structure;
      case "net requests for EM" test_net_requests;
      case "case 1: missing parasitics" test_case1_shape;
      case "case 2: over-estimated diffusion" test_case2_shape;
      case "case 3: exact diffusion only" test_case3_shape;
      case "case 4: full knowledge (headline)" test_case4_shape;
      case "case error ordering" test_case_ordering;
      case "extracted netlist details" test_extracted_amp_details;
      case "layout report sanity" test_layout_report_sanity;
      case "traditional flow comparison" test_traditional_flow;
    ] )
