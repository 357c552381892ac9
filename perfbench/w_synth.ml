(* synth: one op is one cold Core.Flow.run (memos cleared, 1 job) — the
   paper's sizing <-> layout loop followed by generation and post-layout
   verification. *)

open Common
module FC = Comdiac.Folded_cascode
module TB = Comdiac.Testbench

let ctx = Core.Ctx.make ~jobs:1 proc

(* The benchmark's own unity-gain frequency: bisection of |A(jw)| = 1 on
   log frequency over Sim.Acs.transfer at the bench's operating point. *)
let bisect_gbw tb =
  let net = Sim.Acs.prepare (TB.operating_point tb) in
  let mag f = Complex.norm (Sim.Acs.transfer net ~freq:f ~out:"out") in
  let rec up f = if mag f < 1.0 || f > 1e12 then f else up (f *. 2.0) in
  let hi = up 1e3 in
  let rec bisect lo hi k =
    if k = 0 then sqrt (lo *. hi)
    else
      let mid = sqrt (lo *. hi) in
      if mag mid >= 1.0 then bisect mid hi (k - 1) else bisect lo mid (k - 1)
  in
  bisect (hi /. 2.0) hi 60

let rel a b = Float.abs (a -. b) /. Float.abs b

let converged (r : Core.Flow.result) =
  match r.Core.Flow.case with
  | Core.Flow.Case1 | Core.Flow.Case2 -> true
  | Core.Flow.Case3 | Core.Flow.Case4 ->
    (match List.rev r.Core.Flow.trajectory with
     | d :: _ -> d < 0.02
     | [] -> false)

(* Output checks on one converged op. *)
let check_op (inp : Inputs.synth) (r : Core.Flow.result) =
  let spec = inp.Inputs.spec and lbl = inp.Inputs.label in
  let s = r.Core.Flow.synthesized and e = r.Core.Flow.extracted in
  let amp = r.Core.Flow.design.FC.amp in
  let tb = TB.make ~proc ~kind ~spec amp in
  Harness.check (lbl ^ ": reported GBW matches bisection of |A| = 1")
    (rel (bisect_gbw tb) s.Comdiac.Performance.gbw < 1e-4);
  let sr_max = amp.Comdiac.Amp.tail_current /. spec.Comdiac.Spec.cload in
  Harness.check (lbl ^ ": slew rate <= I_tail / C_L")
    (s.Comdiac.Performance.slew_rate <= sr_max
     && e.Comdiac.Performance.slew_rate <= sr_max);
  (match inp.Inputs.case with
   | Core.Flow.Case1 | Core.Flow.Case2 ->
     Harness.check (lbl ^ ": cases 1 and 2 make no layout call")
       (r.Core.Flow.layout_calls = 0)
   | Core.Flow.Case3 -> ()
   | Core.Flow.Case4 ->
     Harness.check (lbl ^ ": case-4 extracted GBW >= 98% of spec")
       (e.Comdiac.Performance.gbw >= 0.98 *. spec.Comdiac.Spec.gbw);
     Harness.check (lbl ^ ": case-4 extracted PM >= spec - 1 deg")
       (e.Comdiac.Performance.phase_margin
        >= spec.Comdiac.Spec.phase_margin -. 1.0))

let gap (r : Core.Flow.result) =
  rel r.Core.Flow.extracted.Comdiac.Performance.gbw
    r.Core.Flow.synthesized.Comdiac.Performance.gbw

(* Time the Testbench measurements the flow's verification makes, on
   the synthesized and the extracted amp, cold: (dc, ac, tran, noise). *)
let retime (r : Core.Flow.result) spec =
  let t f = let t0 = Harness.now () in let v = f () in (v, Harness.now () -. t0) in
  let one amp =
    Cache.Memo.clear_all ();
    let tb, dc = t (fun () -> TB.make ~proc ~kind ~spec amp) in
    let fu, ac =
      t (fun () ->
        ignore (TB.dc_gain tb);
        ignore (TB.phase_margin tb);
        ignore (TB.cmrr tb);
        ignore (TB.output_resistance tb);
        ignore (TB.power tb);
        match TB.gbw tb with Some f -> f | None -> 10e6)
    in
    let _, tran = t (fun () -> TB.slew_rate tb) in
    let _, noise =
      t (fun () ->
        ignore (TB.integrated_input_noise tb ~fmin:1.0 ~fmax:fu);
        ignore (TB.input_noise_density tb ~freq:(Float.max 1e5 (fu /. 4.0)));
        TB.input_noise_density tb ~freq:1.0)
    in
    (dc, ac, tran, noise)
  in
  let d = r.Core.Flow.design in
  let a1, b1, c1, d1 = one d.FC.amp in
  let a2, b2, c2, d2 =
    one (Core.Flow.extracted_amp proc d r.Core.Flow.report)
  in
  (a1 +. a2, b1 +. b2, c1 +. c2, d1 +. d2)

let run_op (inp : Inputs.synth) =
  Cache.Memo.clear_all ();
  Harness.stretch (fun () ->
    match Core.Flow.run ~ctx ~kind ~spec:inp.Inputs.spec inp.Inputs.case with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e))

(* Layer rows of one traced op, from the program's spans: glue of the
   flow itself, the sizing plan, CAIRO, DC solves and AC measurement,
   and the verification benches' own time split by the re-timed shares
   of AC, transient and noise. *)
let add_rows acc ~ac ~tran ~noise =
  let row layer name = Layers.row acc layer ~calls:(Layers.calls name) (Layers.self_s name) in
  row "core.flow" "flow.run";
  row "core.flow" "flow.sizing";
  row "core.flow" "flow.layout_call";
  row "comdiac.plan" "comdiac.size.folded_cascode";
  row "cairo_layout" "cairo.plan.run";
  row "cairo_layout" "slicing.optimize";
  row "sim.dc" "dcop.solve";
  row "sim.ac" "measure.unity_gain_freq";
  let verify =
    Layers.self_s "flow.verify_synthesized"
    +. Layers.self_s "flow.verify_extracted"
  in
  let total = ac +. tran +. noise in
  List.iter
    (fun (layer, share) -> Layers.row acc layer ~calls:2 (verify *. share /. total))
    [ ("sim.ac (verify)", ac); ("sim.tran (verify)", tran);
      ("sim.noise (verify)", noise) ]

let run ~seed ~seconds ~trace =
  let t_start = Harness.now () in
  let rss = ref nan in
  let lat = ref [] and cpu = ref 0.0 and attempted = ref 0 and failed = ref 0 in
  let busy = ref 0.0 in
  let acc = Layers.create () in
  let round = ref 0 in
  while !round = 0 || Harness.now () -. t_start < seconds do
    let inputs = Inputs.synth_round ~seed ~round:!round in
    let paper = Hashtbl.create 4 in
    List.iter
      (fun (inp : Inputs.synth) ->
        incr attempted;
        let res, st = run_op inp in
        (* the heap only grows over a run, and how fast depends on the
           inputs, so the peak is read after fixed work: the first
           round's four Table-1 ops *)
        if !round = 0 && inp.Inputs.paper && inp.Inputs.case = Core.Flow.Case4 then
          rss := Harness.peak_rss_mb ();
        busy := !busy +. st.Harness.raw_s;
        cpu := !cpu +. st.Harness.cpu_s;
        match res with
        | Error msg ->
          incr failed;
          Harness.check (inp.Inputs.label ^ ": flow raised " ^ msg) false
        | Ok r when not (converged r) ->
          incr failed;
          Harness.check
            (inp.Inputs.label ^ ": limit cycle outside the named specs")
            inp.Inputs.fault
        | Ok r ->
          lat := st.Harness.raw_s :: !lat;
          if inp.Inputs.paper then Hashtbl.replace paper inp.Inputs.case r;
          check_op inp r;
          if trace then begin
            (* the same op again with telemetry on *)
            Cache.Memo.clear_all ();
            Layers.reset_telemetry ();
            let pool0 = Layers.pool () in
            let (r2, st2) =
              Obs.Config.with_enabled true (fun () -> run_op inp)
            in
            let r2 = Result.get_ok r2 in
            Layers.op acc ~traced:st2.Harness.raw_s ~untraced:st.Harness.raw_s;
            Layers.add acc "flow.layout_calls" (float_of_int r2.Core.Flow.layout_calls);
            Layers.add acc "flow.sizing_passes" (float_of_int r2.Core.Flow.sizing_passes);
            Layers.add acc "comdiac.size_s" (Layers.cum_s "comdiac.size.folded_cascode");
            Layers.add acc "cairo.parasitic_s"
              (Layers.span_mode_s "cairo.plan.run" "parasitic_only");
            Layers.add acc "cairo.generation_s"
              (Layers.span_mode_s "cairo.plan.run" "generation");
            Layers.add_program_counters acc ~pool0 ~wall_s:st2.Harness.raw_s;
            let dc, ac, tran, noise = retime r2 inp.Inputs.spec in
            Layers.add acc "sim.dc_s" dc;
            Layers.add acc "sim.ac_s" ac;
            Layers.add acc "sim.tran_s" tran;
            Layers.add acc "sim.noise_s" noise;
            add_rows acc ~ac ~tran ~noise
          end)
      inputs;
    (match Hashtbl.find_opt paper Core.Flow.Case1, Hashtbl.find_opt paper Core.Flow.Case4 with
     | Some r1, Some r4 ->
       Harness.check "paper spec: case-4 GBW gap < case-1 gap" (gap r4 < gap r1)
     | _ -> Harness.check "paper spec: cases 1 and 4 converged" false);
    incr round
  done;
  if trace then
    Layers.finish acc ~workload:"synth" ~attempted:!attempted ~failed:!failed
  else
    Harness.print_result ~attempted:!attempted ~failed:!failed
      (end_to_end ~lat:!lat ~busy:!busy ~cpu:!cpu ~attempted:!attempted
         ~rss:!rss)
