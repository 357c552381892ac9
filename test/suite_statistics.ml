open Helpers
module MC = Comdiac.Montecarlo
module M = Device.Model
module P = Technology.Process
module E = Technology.Electrical

let proc = P.c06
let kind = M.Bsim_lite
let spec = Comdiac.Spec.paper_ota

let design =
  lazy
    (Comdiac.Folded_cascode.size ~proc ~kind ~spec
       ~parasitics:Comdiac.Parasitics.single_fold)

let amp () = (Lazy.force design).Comdiac.Folded_cascode.amp

(* --- mismatch plumbing -------------------------------------------------- *)

let test_mismatch_shifts_current () =
  let dev = Device.Mos.make ~name:"m" ~mtype:E.Nmos ~w:10e-6 ~l:1e-6 () in
  let bias = { M.vgs = 1.1; vds = 1.5; vbs = 0.0 } in
  let nominal = M.drain_current kind (Device.Mos.params proc dev) ~w:10e-6 ~l:1e-6 bias in
  let hi_vt = Device.Mos.with_mismatch ~vto_shift:0.05 ~beta_scale:1.0 dev in
  let i_hi_vt =
    M.drain_current kind (Device.Mos.params proc hi_vt) ~w:10e-6 ~l:1e-6 bias
  in
  Alcotest.(check bool) "higher vth lowers current" true (i_hi_vt < nominal);
  let hi_beta = Device.Mos.with_mismatch ~vto_shift:0.0 ~beta_scale:1.1 dev in
  let i_hi_beta =
    M.drain_current kind (Device.Mos.params proc hi_beta) ~w:10e-6 ~l:1e-6 bias
  in
  check_close ~rel:1e-3 "beta scales current proportionally" (1.1 *. nominal)
    i_hi_beta

let test_pelgrom_scaling () =
  let sigma w l =
    let dev = Device.Mos.make ~name:"m" ~mtype:E.Nmos ~w ~l () in
    fst (Device.Mos.mismatch_sigma proc dev)
  in
  (* quadrupled area halves sigma *)
  check_close ~rel:1e-9 "area scaling" (sigma 10e-6 1e-6 /. 2.0)
    (sigma 20e-6 2e-6);
  check_in_range "order of magnitude for 10/1" 1e-3 5e-3 (sigma 10e-6 1e-6)

let test_stats_of () =
  let s = MC.stats_of [ 1.0; 2.0; 3.0; 4.0 ] in
  check_close "mean" 2.5 s.MC.mean;
  (* unbiased sample variance: sum of squared deviations / (n - 1) *)
  check_close ~rel:1e-9 "std (unbiased sample)" (sqrt (5.0 /. 3.0)) s.MC.std;
  check_close "min" 1.0 s.MC.minimum;
  check_close "max" 4.0 s.MC.maximum;
  let single = MC.stats_of [ 7.0 ] in
  check_close "single-element std" 0.0 single.MC.std

(* --- monte carlo --------------------------------------------------------- *)

let test_montecarlo_runs () =
  let r = MC.run ~seed:7 ~n:20 ~proc ~kind ~spec (amp ()) in
  Alcotest.(check int) "all samples converged" 20 r.MC.offset_stats.MC.n;
  (* offset spread dominated by but larger than the input-pair floor *)
  Alcotest.(check bool) "offset sigma above input-pair floor" true
    (r.MC.offset_stats.MC.std > 0.6 *. r.MC.predicted_offset_sigma);
  Alcotest.(check bool) "offset sigma within 5x of floor" true
    (r.MC.offset_stats.MC.std < 5.0 *. r.MC.predicted_offset_sigma);
  (* gain and GBW barely move under mismatch *)
  Alcotest.(check bool) "gain spread small" true (r.MC.gain_stats.MC.std < 2.0);
  Alcotest.(check bool) "gbw spread below 3%" true
    (r.MC.gbw_stats.MC.std < 0.03 *. r.MC.gbw_stats.MC.mean)

let test_montecarlo_reproducible () =
  let r1 = MC.run ~seed:3 ~n:5 ~proc ~kind ~spec (amp ()) in
  let r2 = MC.run ~seed:3 ~n:5 ~proc ~kind ~spec (amp ()) in
  check_close ~rel:1e-12 "same seed, same offsets" r1.MC.offset_stats.MC.mean
    r2.MC.offset_stats.MC.mean;
  let r3 = MC.run ~seed:4 ~n:5 ~proc ~kind ~spec (amp ()) in
  Alcotest.(check bool) "different seed differs" true
    (r3.MC.offset_stats.MC.mean <> r1.MC.offset_stats.MC.mean)

(* --- extended measurements ------------------------------------------------ *)

let tb = lazy (Comdiac.Testbench.make ~proc ~kind ~spec (amp ()))

let test_psrr () =
  let psrr_db = Sim.Measure.db (Comdiac.Testbench.psrr (Lazy.force tb)) in
  check_in_range "psrr plausible for a folded cascode" 30.0 120.0 psrr_db

let test_common_mode_range () =
  let lo, hi = Comdiac.Testbench.common_mode_range ~points:18 (Lazy.force tb) in
  let _, spec_hi = spec.Comdiac.Spec.icmr in
  (* PMOS input: works down to the bottom rail and must cover the spec's
     upper bound *)
  Alcotest.(check bool) "reaches the bottom rail" true (lo <= 0.2);
  Alcotest.(check bool) "covers the spec's top" true (hi >= spec_hi -. 0.2);
  Alcotest.(check bool) "non-degenerate interval" true (hi -. lo > 1.0)

(* --- corners and temperature ---------------------------------------------- *)

let test_corner_transformations () =
  let module C = Technology.Corner in
  let ss = C.apply C.SS proc in
  let nm p = p.P.electrical.E.nmos in
  Alcotest.(check bool) "slow nmos has higher vth" true
    ((nm ss).E.vto > (nm proc).E.vto);
  Alcotest.(check bool) "slow nmos has lower mobility" true
    ((nm ss).E.u0 < (nm proc).E.u0);
  let fs = C.apply C.FS proc in
  Alcotest.(check bool) "fs: fast nmos" true ((nm fs).E.vto < (nm proc).E.vto);
  Alcotest.(check bool) "fs: slow pmos" true
    (fs.P.electrical.E.pmos.E.vto > proc.P.electrical.E.pmos.E.vto);
  let hot = C.at_temperature (C.celsius 85.0) proc in
  Alcotest.(check bool) "hot lowers vth" true ((nm hot).E.vto < (nm proc).E.vto);
  Alcotest.(check bool) "hot lowers mobility" true ((nm hot).E.u0 < (nm proc).E.u0);
  check_close ~rel:1e-12 "tt is identity on cards" (nm (C.apply C.TT proc)).E.vto
    (nm proc).E.vto

let test_corner_currents () =
  (* drain current ordering across corners at fixed bias *)
  let module C = Technology.Corner in
  let i corner =
    let p = C.apply corner proc in
    M.drain_current kind p.P.electrical.E.nmos ~w:10e-6 ~l:1e-6
      { M.vgs = 1.2; vds = 1.5; vbs = 0.0 }
  in
  Alcotest.(check bool) "ff > tt > ss" true (i C.FF > i C.TT && i C.TT > i C.SS)

let test_robustness_frozen_bias () =
  let d = Lazy.force design in
  let r =
    Comdiac.Robustness.run ~proc ~kind ~spec d.Comdiac.Folded_cascode.amp
  in
  Alcotest.(check int) "seven points" 7 (List.length r.Comdiac.Robustness.points);
  (* frozen ideal biases do not track skewed corners *)
  Alcotest.(check bool) "frozen bias struggles across corners" true
    (not
       (Comdiac.Robustness.meets r ~spec ~gbw_slack:0.15 ~pm_slack:5.0))

let test_robustness_with_tracking_bias () =
  let d = Lazy.force design in
  let rebias p = Comdiac.Folded_cascode.rebias ~proc:p ~kind ~spec d in
  let r =
    Comdiac.Robustness.run ~rebias ~proc ~kind ~spec
      d.Comdiac.Folded_cascode.amp
  in
  Alcotest.(check bool) "all corners bias" true r.Comdiac.Robustness.all_biased;
  (* corner spread within ~20% of target with a tracking bias generator *)
  Alcotest.(check bool) "tracking bias holds GBW" true
    (r.Comdiac.Robustness.worst_gbw > 0.75 *. spec.Comdiac.Spec.gbw);
  Alcotest.(check bool) "tracking bias holds PM" true
    (r.Comdiac.Robustness.worst_pm > spec.Comdiac.Spec.phase_margin -. 5.0)

(* --- unity-gain bracket vs the point-by-point oracle ---------------------- *)

(* The scan the measurements used before the coarse-to-fine bracket:
   every point of the sweep, in order. *)
let oracle_bracket ~below points =
  let rec scan i =
    if i >= Array.length points then None
    else if below points.(i) then Some (points.(i - 1), points.(i))
    else scan (i + 1)
  in
  scan 1

let log_freq_grid = Phys.Numerics.linspace (log 1.0) (log 1e11) 121

let oracle_unity_gain_freq net ~out =
  let g u = log (Sim.Measure.magnitude net ~out (exp u)) in
  if g log_freq_grid.(0) <= 0.0 then None
  else
    match oracle_bracket ~below:(fun u -> g u <= 0.0) log_freq_grid with
    | None -> None
    | Some (a, b) -> Some (exp (Phys.Numerics.brent ~tol:1e-9 ~f:g a b))

(* Over random specs of the GBW 30-100 MHz x C_L 1.5-5 pF lattice and
   random Monte Carlo seeds, for every Table-1 case, synthesized and
   extracted, nominal and mismatched: the bracket is the oracle's and the
   unity-gain frequency is bit-equal.  This is the condition under which
   the coarse-to-fine scan is exact (|H| never dips to 1 and back within
   one stride).  The 45 MHz row is left out: sizing fails there for C_L
   above 1.5 pF (a known hole), and every other lattice point's flow must
   succeed, so a broken bracket cannot hide behind a failed flow. *)
let prop_bracket_matches_oracle =
  QCheck.Test.make ~count:3
    ~name:"unity-gain bracket = point-by-point oracle (4 cases, MC samples)"
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 13) (int_range 0 7))
    (fun (seed, g, c) ->
      let mhz = 30.0 +. (5.0 *. float_of_int (if g >= 3 then g + 1 else g)) in
      let spec =
        { spec with
          Comdiac.Spec.gbw = mhz *. 1e6;
          cload = (1.5 +. (0.5 *. float_of_int c)) *. 1e-12 }
      in
      let bits = Option.map Int64.bits_of_float in
      let bench_ok amp =
        match Comdiac.Testbench.make ~proc ~kind ~spec amp with
        | exception (Failure _ | Phys.Numerics.No_convergence _) -> true
        | tb ->
          let net = Sim.Acs.prepare (Comdiac.Testbench.operating_point tb) in
          let g u = log (Sim.Measure.magnitude net ~out:"out" (exp u)) in
          let oracle = oracle_unity_gain_freq net ~out:"out" in
          Option.map (fun (a, _, b, _) -> (a, b))
            (Phys.Numerics.scan_bracket ~f:g log_freq_grid)
          = oracle_bracket ~below:(fun u -> g u <= 0.0) log_freq_grid
          && bits (Sim.Measure.unity_gain_freq net ~out:"out") = bits oracle
          && bits (Comdiac.Testbench.gbw tb) = bits oracle
      in
      let case_ok case =
        let r = Core.Flow.run ~proc ~kind ~spec case in
        let design = r.Core.Flow.design in
        List.for_all
          (fun amp ->
            List.for_all bench_ok
              (amp :: List.init 3 (fun i -> MC.sample_amp ~proc ~seed i amp)))
          [ design.Comdiac.Folded_cascode.amp;
            Core.Flow.extracted_amp proc design r.Core.Flow.report ]
      in
      List.for_all case_ok Core.Flow.all_cases)

let suite =
  ( "statistics",
    [
      case "mismatch shifts model behaviour" test_mismatch_shifts_current;
      case "pelgrom area scaling" test_pelgrom_scaling;
      case "summary statistics" test_stats_of;
      case "monte carlo distribution" test_montecarlo_runs;
      case "monte carlo reproducible" test_montecarlo_reproducible;
      case "psrr measurement" test_psrr;
      case "input common-mode range" test_common_mode_range;
      case "corner transformations" test_corner_transformations;
      case "corner current ordering" test_corner_currents;
      case "robustness: frozen bias" test_robustness_frozen_bias;
      case "robustness: tracking bias" test_robustness_with_tracking_bias;
    ]
    @ qcheck_cases [ prop_bracket_matches_oracle ] )
