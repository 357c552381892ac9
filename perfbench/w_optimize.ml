(* optimize: one op is Opt.Search.run at its defaults (6 starts, budget
   480, Nelder-Mead, LUT tier on) at a fresh seed, with memos cleared
   first and the pool at 2 jobs. *)

open Common
module S = Opt.Search
module O = Opt.Objective

let ctx = Core.Ctx.make ~jobs:2 proc
let spec = Comdiac.Spec.paper_ota

let op ?(ctx = ctx) seed = S.run ~ctx ~seed ~kind ~spec ()

let dominates (a : O.point) (b : O.point) =
  a.O.penalty <= b.O.penalty && a.O.power <= b.O.power && a.O.area <= b.O.area
  && (a.O.penalty < b.O.penalty || a.O.power < b.O.power || a.O.area < b.O.area)

let check_op label (r : S.result) =
  Harness.check (label ^ ": front is mutually non-dominated")
    (List.for_all
       (fun a -> List.for_all (fun b -> not (dominates a b)) r.S.front)
       r.S.front);
  match r.S.best_design, r.S.best_performance with
  | Some d, Some p ->
    (* a fresh measurement, memos cleared *)
    Cache.Memo.clear_all ();
    let fresh =
      Comdiac.Testbench.performance
        (Comdiac.Testbench.make ~proc ~kind ~spec d.Comdiac.Folded_cascode.amp)
    in
    Harness.check (label ^ ": best_performance equals a fresh measurement")
      (compare fresh p = 0)
  | _ -> Harness.check (label ^ ": best design and performance present") false

let same_result (a : S.result) (b : S.result) =
  compare
    (a.S.survivors, a.S.front, a.S.best, a.S.evals_coarse, a.S.evals_polish)
    (b.S.survivors, b.S.front, b.S.best, b.S.evals_coarse, b.S.evals_polish)
  = 0

(* Set-up proper: the LUT grids the coarse tier interpolates from. *)
let build_luts () =
  List.iter
    (fun m -> ignore (Device.Lut.table proc kind m))
    [ Technology.Electrical.Nmos; Technology.Electrical.Pmos ]

let run ~seed ~seconds ~trace ~lut_build_s =
  let t_start = Harness.now () in
  let lat = ref [] and cpu = ref 0.0 and busy = ref 0.0 in
  let attempted = ref 0 and failed = ref 0 in
  let acc = Layers.create () in
  let nop = ref 0 in
  while !nop = 0 || Harness.now () -. t_start < seconds do
    let s = Inputs.op_seed ~seed ~op:!nop in
    let label = Printf.sprintf "optimize seed %d" s in
    incr nop;
    incr attempted;
    Cache.Memo.clear_all ();
    match Harness.stretch (fun () -> op s) with
    | exception e ->
      incr failed;
      Harness.check (label ^ ": search raised " ^ Printexc.to_string e) false
    | r, st ->
      lat := st.Harness.raw_s :: !lat;
      busy := !busy +. st.Harness.raw_s;
      cpu := !cpu +. st.Harness.cpu_s;
      check_op label r;
      if !nop = 1 then begin
        Cache.Memo.clear_all ();
        let one = op ~ctx:(Core.Ctx.make ~jobs:1 proc) s in
        Harness.check (label ^ ": identical at 1 and 2 jobs") (same_result one r)
      end;
      if trace then begin
        Cache.Memo.clear_all ();
        Layers.reset_telemetry ();
        let pool0 = Layers.pool () in
        let r2, st2 = Obs.Config.with_enabled true (fun () -> Harness.stretch (fun () -> op s)) in
        Layers.op acc ~traced:st2.Harness.raw_s ~untraced:st.Harness.raw_s;
        (* before the re-timed measurements below clear the memos and
           their hit counts *)
        Layers.add_program_counters acc ~pool0 ~wall_s:st2.Harness.raw_s;
        let search = r2.S.elapsed_search_s and verify = r2.S.elapsed_verify_s in
        (* the winner's full Table-1 measurement, the rest of the op,
           re-timed cold *)
        let measure =
          match r2.S.best_design with
          | None -> 0.0
          | Some d ->
            Cache.Memo.clear_all ();
            let t0 = Harness.now () in
            ignore
              (Comdiac.Testbench.performance
                 (Comdiac.Testbench.make ~proc ~kind ~spec d.Comdiac.Folded_cascode.amp));
            Harness.now () -. t0
        in
        (* the LUT trust guard the search runs after its coarse pass *)
        let trust =
          let t0 = Harness.now () in
          ignore (Device.Lut.trust_check ());
          Harness.now () -. t0
        in
        List.iter
          (fun (layer, t) -> Layers.row acc layer t)
          [ ("opt.search", search); ("opt.verify", verify);
            ("sim (best-design measurement, re-timed)", measure);
            ("device.lut trust check (re-timed)", trust) ];
        Layers.add acc "opt.search_s" search;
        Layers.add acc "opt.verify_s" verify;
        Layers.add acc "opt.points_per_s" (S.points_per_second r2);
        Layers.add acc "opt.evals_coarse" (float_of_int r2.S.evals_coarse);
        Layers.add acc "opt.evals_polish" (float_of_int r2.S.evals_polish);
        Layers.add acc "opt.evals_sim" (float_of_int r2.S.evals_sim);
        Layers.add acc "comdiac.size_s" (Layers.cum_s "comdiac.size.folded_cascode");
        Layers.add acc "sim.dc_s" (Layers.cum_s "dcop.solve");
        Layers.add acc "sim.ac_s" (Layers.cum_s "measure.unity_gain_freq")
      end
  done;
  if trace then begin
    Layers.set acc "device.lut_build_s" lut_build_s;
    Layers.finish acc ~workload:"optimize" ~attempted:!attempted ~failed:!failed
  end else
    Harness.print_result ~attempted:!attempted ~failed:!failed
      (end_to_end ~lat:!lat ~busy:!busy ~cpu:!cpu ~attempted:!attempted
         ~rss:(Harness.peak_rss_mb ()))
