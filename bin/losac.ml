(* losac - layout-oriented synthesis of analog circuits.

   Subcommands:
     losac size   - size an op-amp and verify it by simulation
     losac synth  - run the layout-oriented flow (Table-1 cases)
     losac layout - generate and render the layout of a synthesis run
     losac tech   - characterise the built-in technologies *)

open Cmdliner

let proc_conv =
  let parse s =
    match Technology.Process.find s with
    | p -> Ok p
    | exception Not_found ->
      Error
        (`Msg
           (Printf.sprintf "unknown technology %s (have: %s)" s
              (String.concat ", "
                 (List.map
                    (fun p -> p.Technology.Process.name)
                    Technology.Process.builtin))))
  in
  let print fmt p = Format.pp_print_string fmt p.Technology.Process.name in
  Arg.conv (parse, print)

let kind_conv =
  let parse = function
    | "level1" -> Ok Device.Model.Level1
    | "bsim-lite" | "bsim" -> Ok Device.Model.Bsim_lite
    | s -> Error (`Msg (Printf.sprintf "unknown model %s (level1|bsim-lite)" s))
  in
  let print fmt k = Format.pp_print_string fmt (Device.Model.kind_to_string k) in
  Arg.conv (parse, print)

(* Sample, start and budget counts: the wire refuses a non-positive count
   with invalid_request, so the CLI refuses it as a usage error. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %s" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let proc_arg =
  Arg.(value & opt proc_conv Technology.Process.c06
       & info [ "tech" ] ~docv:"NAME" ~doc:"Technology (c06 or c035).")

(* --- parallelism ------------------------------------------------------ *)

let jobs_term =
  let doc =
    "Worker domains for parallel sections (Monte Carlo sampling, \
     corner/temperature sweeps, multi-case synthesis).  Results are \
     bit-identical whatever the value; 1 disables parallelism.  Defaults \
     to the machine's recommended domain count."
  in
  Arg.(value
       & opt (some pos_int) None
       & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "LOSAC_JOBS") ~doc)

let seed_term =
  let doc =
    "Base RNG seed for every stochastic analysis (Monte Carlo sampling, \
     $(b,optimize) start points).  Same seed, same results at any \
     $(b,--jobs) count.  Overrides the $(b,LOSAC_SEED) environment \
     variable; defaults to 42."
  in
  Arg.(value
       & opt (some int) None
       & info [ "seed" ] ~docv:"N" ~env:(Cmd.Env.info "LOSAC_SEED") ~doc)

(* --- caching ---------------------------------------------------------- *)

let cache_term =
  let doc_on =
    "Enable the content-addressed memo caches (device operating points, \
     layout variant generation, parasitic plans, Monte Carlo samples, \
     corner points).  This is the default; results are bit-identical \
     with caching on or off.  Overrides the $(b,LOSAC_CACHE) environment \
     variable."
  in
  let doc_off = "Disable the memo caches (cold run every time)." in
  Arg.(value
       & vflag None
           [ (Some true, info [ "cache" ] ~doc:doc_on);
             (Some false, info [ "no-cache" ] ~doc:doc_off) ])

(* The cache hit/miss/eviction table plus domain-pool utilization, the
   simulator latency quantiles and the profiler hot spots — the
   [losac stats] view, also available as --stats after any command. *)
let stats_view () =
  let caches = Cache.Memo.registry () in
  Format.printf "@.cache statistics:@.";
  if caches = [] then Format.printf "  (no caches created)@.";
  List.iter
    (fun (s : Cache.Memo.stats) ->
      Format.printf
        "  %-22s %8d hits %8d misses %6d evictions  %5.1f%% hit rate  \
         %d/%d entries@."
        s.Cache.Memo.name s.Cache.Memo.hits s.Cache.Memo.misses
        s.Cache.Memo.evictions
        (100.0 *. Cache.Memo.hit_rate s)
        s.Cache.Memo.entries s.Cache.Memo.capacity)
    caches;
  if Device.Lut.tables_built () > 0 then begin
    Format.printf "  %d operating-point LUT grid(s) built@."
      (Device.Lut.tables_built ());
    let t = Device.Lut.trust_check () in
    if t.Device.Lut.cells_visited > 0 then
      Format.printf
        "  LUT trust: %d grid cell(s) visited, max rel err %.3e vs exact@."
        t.Device.Lut.cells_visited t.Device.Lut.max_rel_err
  end;
  Format.printf "pool: %d worker domain(s), queue depth %d@."
    (Par.Pool.num_workers ()) (Par.Pool.queue_depth ());
  (match Par.Pool.worker_stats () with
   | [] -> Format.printf "  (pool never started -- no parallel section ran)@."
   | workers ->
     (* Workers first, then executors/callers, each group by domain id.
        Every chunk is accounted to exactly one domain (a chunk an
        executor drains of its own batch lands on its own row, never
        also on a worker row), so the by-role totals below sum to the
        true chunk count even when several executors share the pool. *)
     let rank (w : Par.Pool.worker_stat) =
       if w.Par.Pool.ws_role = "worker" then 0 else 1
     in
     let workers =
       List.sort
         (fun a b ->
           match compare (rank a) (rank b) with
           | 0 -> compare a.Par.Pool.ws_domain b.Par.Pool.ws_domain
           | c -> c)
         workers
     in
     Format.printf "  %-8s %-8s %8s %12s %12s %6s %7s %9s@." "domain"
       "role" "tasks" "busy ms" "wait ms" "busy%" "steals" "warmup ms";
     List.iter
       (fun (w : Par.Pool.worker_stat) ->
         Format.printf
           "  %-8d %-8s %8d %12.3f %12.3f %5.1f%% %7d %9.3f@."
           w.Par.Pool.ws_domain w.Par.Pool.ws_role w.Par.Pool.ws_tasks
           (w.Par.Pool.ws_busy_us /. 1e3)
           (w.Par.Pool.ws_wait_us /. 1e3)
           (100.0 *. w.Par.Pool.ws_busy_frac)
           w.Par.Pool.ws_steals
           (w.Par.Pool.ws_warmup_us /. 1e3))
       workers;
     let by_role =
       List.fold_left
         (fun acc (w : Par.Pool.worker_stat) ->
           let role = w.Par.Pool.ws_role in
           let prev = try List.assoc role acc with Not_found -> 0 in
           (role, prev + w.Par.Pool.ws_tasks)
           :: List.remove_assoc role acc)
         [] workers
       |> List.sort (fun (a, _) (b, _) -> compare a b)
     in
     let total = List.fold_left (fun acc (_, n) -> acc + n) 0 by_role in
     Format.printf "  totals: %d task(s)%s@." total
       (if List.length by_role > 1 then
          " ("
          ^ String.concat ", "
              (List.map (fun (r, n) -> Printf.sprintf "%s %d" r n) by_role)
          ^ ")"
        else ""));
  let sim_hists =
    List.filter
      (fun n -> String.length n > 4 && String.sub n 0 4 = "sim.")
      (Obs.Metrics.hist_names ())
  in
  if sim_hists <> [] then begin
    Format.printf "@.simulator latency quantiles:@.";
    List.iter
      (fun n ->
        match Obs.Metrics.hist_stats n with
        | None -> ()
        | Some s ->
          Format.printf
            "  %-24s n=%-7d p50 %10.1f  p90 %10.1f  p99 %10.1f  max %10.1f@."
            n s.Obs.Metrics.count s.Obs.Metrics.p50 s.Obs.Metrics.p90
            s.Obs.Metrics.p99 s.Obs.Metrics.max)
      sim_hists
  end;
  if Obs.Prof.sites () <> [] then
    Format.printf "@.profile hot spots:@.%s" (Obs.Reporter.prof_table ())

(* --- telemetry and logging ------------------------------------------- *)

type telemetry = {
  trace : string option;
  metrics : bool;
  stats : bool;
  openmetrics : bool;
  prof_folded : string option;
  jobs : int option;
  cache : bool option;
  seed : int option;
}

let telemetry_term =
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace_event JSON trace of the run to \
                   $(docv); open it in chrome://tracing or \
                   https://ui.perfetto.dev.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Collect telemetry and print the metrics table (Newton \
                   iteration totals, layout-call counts, parasitic \
                   convergence deltas, ...) after the run.")
  in
  let verbose =
    Arg.(value & flag_all
         & info [ "v"; "verbose" ]
             ~doc:"Increase log verbosity; repeatable ($(b,-v) info, \
                   $(b,-vv) debug).  Warnings (e.g. Newton \
                   divergence-and-retry) print by default.")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print the cache hit/miss/eviction table and the domain \
                   pool counters after the run (the $(b,losac stats) \
                   view).")
  in
  let openmetrics =
    Arg.(value & flag
         & info [ "openmetrics" ]
             ~doc:"Print the collected metrics in Prometheus/OpenMetrics \
                   text exposition after the run (implies telemetry \
                   collection).")
  in
  let prof_folded =
    Arg.(value & opt (some string) None
         & info [ "prof-folded" ] ~docv:"FILE"
             ~doc:"Write the profiler's folded call stacks (one \
                   semicolon-joined path and its self time in µs per \
                   line) to $(docv); feed it to flamegraph.pl or \
                   speedscope.  Implies telemetry collection.")
  in
  let setup trace metrics verbose jobs cache seed stats
      openmetrics prof_folded =
    Fmt_tty.setup_std_outputs ();
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level
      (match List.length verbose with
       | 0 -> Some Logs.Warning
       | 1 -> Some Logs.Info
       | _ -> Some Logs.Debug);
    if trace <> None || metrics || openmetrics || prof_folded <> None then
      Obs.Config.set_enabled true;
    Option.iter Par.Pool.set_default_jobs jobs;
    Option.iter Cache.Config.set_enabled cache;
    { trace; metrics; stats; openmetrics; prof_folded; jobs; cache;
      seed }
  in
  Term.(const setup $ trace $ metrics $ verbose $ jobs_term
        $ cache_term $ seed_term $ stats $ openmetrics
        $ prof_folded)

(* The execution context handed to the analyses: one bundle instead of
   loose ?jobs/?cache/?telemetry arguments (see Core.Ctx). *)
let ctx_of ?label tele proc =
  Core.Ctx.make ?jobs:tele.jobs ?cache:tele.cache
    ?seed:tele.seed ?label proc

(* Emit whatever telemetry the flags requested, after the command ran. *)
let telemetry_finish tele =
  if tele.stats then stats_view ();
  if tele.metrics then begin
    Cache.Memo.export_metrics ();
    Par.Pool.export_metrics ();
    Format.printf "@.telemetry metrics:@.%s" (Obs.Reporter.metrics_table ());
    Format.printf "@.span roll-up:@.%s" (Obs.Reporter.spans_table ());
    Format.printf "@.profile hot spots:@.%s" (Obs.Reporter.prof_table ())
  end;
  if tele.openmetrics then begin
    Cache.Memo.export_metrics ();
    Par.Pool.export_metrics ();
    print_string (Obs.Openmetrics.to_string ())
  end;
  (match tele.prof_folded with
   | Some path ->
     (try
        Obs.Prof.write_folded path;
        Format.printf "wrote folded profile (%d call paths) to %s@."
          (List.length (Obs.Prof.folded ())) path
      with Sys_error msg ->
        Format.eprintf "losac: cannot write folded profile: %s@." msg;
        exit 1)
   | None -> ());
  match tele.trace with
  | Some path ->
    (try
       Obs.Reporter.write_trace path;
       Format.printf "wrote Chrome trace (%d spans) to %s@."
         (Obs.Trace.span_count ()) path
     with Sys_error msg ->
       Format.eprintf "losac: cannot write trace: %s@." msg;
       exit 1)
  | None -> ()

let kind_arg =
  Arg.(value & opt kind_conv Device.Model.Bsim_lite
       & info [ "model" ] ~docv:"KIND" ~doc:"Transistor model (level1 or bsim-lite).")

(* --- output format ---------------------------------------------------- *)

type format = Text | Json

let format_term =
  let doc =
    "Output format: $(b,text) (human-readable, the default) or $(b,json) \
     (the canonical losac.job/1 response document — byte-identical to \
     the same job answered by $(b,losac serve), which is asserted by the \
     test suite)."
  in
  Arg.(value
       & opt (enum [ ("text", Text); ("json", Json) ]) Text
       & info [ "format" ] ~docv:"FMT" ~doc)

(* The one-shot commands and the daemon share the losac.job/1
   request/response structs: in json mode a subcommand builds the same
   Protocol.request a client would send and answers it with the same
   Api.execute the server's executor thread calls. *)
let request_of ?timeout_s ?telemetry tele proc kind spec workload =
  Serve.Protocol.request ?jobs:tele.jobs ?cache:tele.cache
    ?seed:tele.seed ?timeout_s ?telemetry
    ~proc:proc.Technology.Process.name ~kind ~spec workload

let emit_json tele req =
  let r = Serve.Api.execute req in
  print_string (Serve.Protocol.canonical r);
  print_newline ();
  telemetry_finish tele;
  match r.Serve.Protocol.status with
  | Serve.Protocol.Done -> ()
  | _ -> exit 1

let spec_term =
  let gbw =
    Arg.(value & opt float 65.0
         & info [ "gbw" ] ~docv:"MHZ" ~doc:"Gain-bandwidth target, MHz.")
  in
  let pm =
    Arg.(value & opt float 65.0
         & info [ "pm" ] ~docv:"DEG" ~doc:"Phase margin target, degrees.")
  in
  let cl =
    Arg.(value & opt float 3.0
         & info [ "cl" ] ~docv:"PF" ~doc:"Load capacitance, pF.")
  in
  let vdd =
    Arg.(value & opt float 3.3 & info [ "vdd" ] ~docv:"V" ~doc:"Supply voltage.")
  in
  (* a spec the sizing plans would refuse is a usage error, as the wire
     answers it with invalid_request *)
  let build gbw pm cl vdd =
    let spec =
      { Comdiac.Spec.paper_ota with
        Comdiac.Spec.gbw = gbw *. 1e6;
        phase_margin = pm;
        cload = cl *. 1e-12;
        vdd }
    in
    match Comdiac.Spec.validate spec with
    | Ok () -> Ok spec
    | Error msg -> Error ("spec: " ^ msg)
  in
  Term.(cli_parse_result' (const build $ gbw $ pm $ cl $ vdd))

(* --- size ----------------------------------------------------------- *)

let size_cmd =
  let topology =
    Arg.(value & opt string "folded-cascode"
         & info [ "topology" ] ~docv:"NAME"
             ~doc:"folded-cascode, two-stage or 5t.")
  in
  let run proc kind spec topology =
    let tb_and_print amp pp_design =
      pp_design ();
      let tb = Comdiac.Testbench.make ~proc ~kind ~spec amp in
      Format.printf "@.measured performance:@.%a@." Comdiac.Performance.pp
        (Comdiac.Testbench.performance tb)
    in
    let parasitics = Comdiac.Parasitics.single_fold in
    match topology with
    | "folded-cascode" | "fc" ->
      let d = Comdiac.Folded_cascode.size ~proc ~kind ~spec ~parasitics in
      tb_and_print d.Comdiac.Folded_cascode.amp (fun () ->
        Format.printf "%a@." Comdiac.Folded_cascode.pp_design d)
    | "two-stage" | "miller" ->
      let spec = { spec with Comdiac.Spec.icmr = (1.2, 2.1) } in
      let d = Comdiac.Two_stage.size ~proc ~kind ~spec ~parasitics in
      tb_and_print d.Comdiac.Two_stage.amp (fun () ->
        Format.printf "%a@." Comdiac.Two_stage.pp_design d)
    | "5t" | "simple" ->
      let spec = { spec with Comdiac.Spec.icmr = (1.2, 2.1) } in
      let d = Comdiac.Simple_ota.size ~proc ~kind ~spec ~parasitics in
      tb_and_print d.Comdiac.Simple_ota.amp (fun () ->
        Format.printf "%a@." Comdiac.Simple_ota.pp_design d)
    | other -> Format.printf "unknown topology %s@." other
  in
  let run tele format proc kind spec topology =
    match format with
    | Json ->
      emit_json tele
        (request_of tele proc kind spec (Serve.Protocol.Size { topology }))
    | Text ->
      run proc kind spec topology;
      telemetry_finish tele
  in
  let info =
    Cmd.info "size" ~doc:"Size an op-amp and verify it by simulation."
  in
  Cmd.v info
    Term.(const run $ telemetry_term $ format_term $ proc_arg $ kind_arg
          $ spec_term $ topology)

(* --- synth ----------------------------------------------------------- *)

let case_conv =
  let parse = function
    | "1" -> Ok Core.Flow.Case1
    | "2" -> Ok Core.Flow.Case2
    | "3" -> Ok Core.Flow.Case3
    | "4" -> Ok Core.Flow.Case4
    | s -> Error (`Msg (Printf.sprintf "case must be 1..4, got %s" s))
  in
  let print fmt c = Format.pp_print_string fmt (Core.Flow.case_label c) in
  Arg.conv (parse, print)

let synth_cmd =
  let case =
    Arg.(value & opt case_conv Core.Flow.Case4
         & info [ "case" ] ~docv:"N"
             ~doc:"Parasitic-awareness case (1..4 as in the paper's Table 1).")
  in
  let run tele format proc kind spec case =
    match format with
    | Json ->
      emit_json tele
        (request_of tele proc kind spec (Serve.Protocol.Synth { case }))
    | Text ->
    let r = Core.Flow.run ~ctx:(ctx_of ~label:"synth" tele proc) ~kind ~spec case in
    Format.printf "%s: %s@." (Core.Flow.case_label case)
      (Core.Flow.case_description case);
    Format.printf "layout-tool calls before convergence: %d (%.1f s total)@."
      r.Core.Flow.layout_calls r.Core.Flow.elapsed;
    (match r.Core.Flow.trajectory with
     | [] -> ()
     | deltas ->
       Format.printf "parasitic convergence trajectory: %s@."
         (String.concat " -> "
            (List.map (fun d -> Printf.sprintf "%.1f%%" (100.0 *. d)) deltas)));
    Format.printf "@.synthesized (extracted):@.%a@." Comdiac.Performance.pp_pair
      (r.Core.Flow.synthesized, r.Core.Flow.extracted);
    telemetry_finish tele
  in
  let info =
    Cmd.info "synth"
      ~doc:"Run the layout-oriented synthesis flow and report synthesized \
            vs extracted performance."
  in
  Cmd.v info
    Term.(const run $ telemetry_term $ format_term $ proc_arg $ kind_arg
          $ spec_term $ case)

(* --- layout ----------------------------------------------------------- *)

let layout_cmd =
  let svg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE" ~doc:"Write the layout as SVG.")
  in
  let ascii =
    Arg.(value & flag & info [ "ascii" ] ~doc:"Print an ASCII rendering.")
  in
  let run tele proc kind spec svg ascii =
    let r = Core.Flow.run ~ctx:(ctx_of ~label:"layout" tele proc) ~kind ~spec Core.Flow.Case4 in
    let report = r.Core.Flow.report in
    Format.printf "floorplan %d x %d lambda@."
      report.Cairo_layout.Plan.total_w report.Cairo_layout.Plan.total_h;
    List.iter
      (fun (name, style) ->
        Format.printf "  %-5s nf = %d@." name style.Device.Folding.nf)
      report.Cairo_layout.Plan.device_styles;
    (match report.Cairo_layout.Plan.cell with
     | None -> ()
     | Some cell ->
       (match svg with
        | Some path ->
          (try
             Out_channel.with_open_text path (fun oc ->
               output_string oc (Cairo_layout.Render.svg cell))
           with Sys_error msg ->
             Format.eprintf "losac: cannot write svg: %s@." msg;
             exit 1);
          Format.printf "wrote %s@." path
        | None -> ());
       if ascii then
         Format.printf "%s@.%s@." Cairo_layout.Render.legend
           (Cairo_layout.Render.ascii ~max_cols:110 cell));
    telemetry_finish tele
  in
  let info = Cmd.info "layout" ~doc:"Generate and render the case-4 layout." in
  Cmd.v info
    Term.(const run $ telemetry_term $ proc_arg $ kind_arg $ spec_term $ svg
          $ ascii)

(* --- verify ----------------------------------------------------------- *)

let verify_cmd =
  let samples =
    Arg.(value & opt pos_int 30
         & info [ "samples" ] ~docv:"N" ~doc:"Monte Carlo sample count.")
  in
  let run tele format proc kind spec samples =
    match format with
    | Json ->
      emit_json tele
        (request_of tele proc kind spec
           (Serve.Protocol.Verify
              { samples; seed = Exec.Ctx.seed ?override:tele.seed None }))
    | Text ->
    let ctx = ctx_of ~label:"verify" tele proc in
    let design =
      Comdiac.Folded_cascode.size ~proc ~kind ~spec
        ~parasitics:Comdiac.Parasitics.single_fold
    in
    let amp = design.Comdiac.Folded_cascode.amp in
    let mc = Comdiac.Montecarlo.run ~n:samples ~ctx ~kind ~spec amp in
    Format.printf "%a@.@." Comdiac.Montecarlo.pp mc;
    let rebias p = Comdiac.Folded_cascode.rebias ~proc:p ~kind ~spec design in
    let rob = Comdiac.Robustness.run ~rebias ~ctx ~kind ~spec amp in
    Format.printf "%a@.@." Comdiac.Robustness.pp rob;
    let tb = Comdiac.Testbench.make ~proc ~kind ~spec amp in
    Format.printf "PSRR %.1f dB@." (Sim.Measure.db (Comdiac.Testbench.psrr tb));
    let lo, hi = Comdiac.Testbench.common_mode_range tb in
    Format.printf "input common-mode range [%.2f, %.2f] V@." lo hi;
    telemetry_finish tele
  in
  let info =
    Cmd.info "verify"
      ~doc:"Statistical (mismatch Monte Carlo) and corner/temperature             verification of the sized amplifier."
  in
  Cmd.v info
    Term.(const run $ telemetry_term $ format_term $ proc_arg $ kind_arg
          $ spec_term $ samples)

(* --- optimize --------------------------------------------------------- *)

let strategy_conv =
  let parse s =
    match Opt.Search.strategy_of_string s with
    | Some _ -> Ok s
    | None ->
      Error (`Msg (Printf.sprintf "unknown strategy %s (nm|anneal)" s))
  in
  Arg.conv (parse, Format.pp_print_string)

let starts_arg =
  Arg.(value & opt pos_int 6
       & info [ "starts" ] ~docv:"N"
           ~doc:"Independent multi-start searches; start $(i,i) draws only \
                 from SplitMix64 stream (seed, $(i,i)), so results are \
                 bit-identical at any $(b,--jobs) count.")

let budget_arg =
  Arg.(value & opt pos_int 480
       & info [ "budget" ] ~docv:"N"
           ~doc:"Total coarse-tier evaluation budget, split across the \
                 starts.")

let strategy_arg =
  Arg.(value & opt strategy_conv "nm"
       & info [ "strategy" ] ~docv:"NAME"
           ~doc:"Per-start search strategy: $(b,nm) (Nelder-Mead simplex \
                 on the candidate lattice) or $(b,anneal) (simulated \
                 annealing fallback for non-smooth regions).")

let lut_arg =
  Arg.(value
       & vflag true
           [ (true,
              info [ "lut" ]
                ~doc:"Run the coarse tier on Device.Lut interpolated \
                      grids (the default; about an order of magnitude \
                      cheaper per candidate).  The final front is exact \
                      either way: survivors are re-verified in the \
                      simulator.");
             (false,
              info [ "no-lut" ]
                ~doc:"Run the coarse tier on exact device models.") ])

let optimize_cmd =
  let run tele format proc kind spec starts budget strategy lut =
    match format with
    | Json ->
      emit_json tele
        (request_of tele proc kind spec
           (Serve.Protocol.Optimize { starts; budget; strategy; lut }))
    | Text ->
      let ctx = ctx_of ~label:"optimize" tele proc in
      let strategy =
        match Opt.Search.strategy_of_string strategy with
        | Some s -> s
        | None -> Opt.Search.Nelder_mead
      in
      let res = Opt.Search.run ~ctx ~starts ~budget ~strategy ~lut ~kind ~spec () in
      Format.printf "%a@." Opt.Search.pp res;
      (match res.Opt.Search.best_performance with
       | Some p ->
         Format.printf "@.measured performance of best:@.%a@."
           Comdiac.Performance.pp p
       | None -> ());
      telemetry_finish tele
  in
  let info =
    Cmd.info "optimize"
      ~doc:"Multi-start optimization over sizing-plan inputs: a cheap \
            LUT-interpolated coarse tier explores, a deterministic \
            exact-plan polish refines each start, and only the surviving \
            winners are re-verified in the simulator.  Deterministic for \
            a given $(b,--seed) at any $(b,--jobs) count."
  in
  Cmd.v info
    Term.(const run $ telemetry_term $ format_term $ proc_arg $ kind_arg
          $ spec_term $ starts_arg $ budget_arg $ strategy_arg $ lut_arg)

(* --- stats ----------------------------------------------------------- *)

let stats_cmd =
  let samples =
    Arg.(value & opt pos_int 50
         & info [ "samples" ] ~docv:"N" ~doc:"Monte Carlo sample count.")
  in
  let repeat =
    Arg.(value & opt int 2
         & info [ "repeat" ] ~docv:"K"
             ~doc:"Run the workload $(docv) times; from the second \
                   iteration on, the request-boundary memo \
                   ($(b,serve.result)) answers both jobs.  0 skips the \
                   workload and just prints the (empty) view.")
  in
  let run tele format proc kind spec samples repeat =
    (* the whole point of this subcommand is the observability view, so
       collect telemetry even without an explicit --metrics *)
    Obs.Config.set_enabled true;
    (* --repeat 0 skips the demo workload entirely: the view (and the
       json snapshot) then reports a never-started pool and empty
       caches, which must render cleanly too. *)
    if repeat > 0 then begin
      let seed = Exec.Ctx.seed ?override:tele.seed None in
      for i = 1 to repeat do
        let t0 = Obs.Clock.monotonic_s () in
        List.iter
          (fun w -> ignore (Serve.Api.execute (request_of tele proc kind spec w)))
          [ Serve.Protocol.Mc { n = samples; seed }; Serve.Protocol.Corners ];
        if format = Text then
          Format.printf "run %d: monte carlo (n=%d) + corner sweep in %.2f s@."
            i samples
            (Obs.Clock.monotonic_s () -. t0)
      done
    end;
    match format with
    | Json -> emit_json tele (request_of tele proc kind spec Serve.Protocol.Stats)
    | Text ->
      stats_view ();
      telemetry_finish tele
  in
  let info =
    Cmd.info "stats"
      ~doc:"Run a Monte Carlo + corner-sweep workload and print the cache \
            hit/miss/eviction and domain-pool statistics.  Use \
            $(b,--no-cache) to compare against the cold path; any other \
            subcommand accepts $(b,--stats) to print the same view."
  in
  Cmd.v info
    Term.(const run $ telemetry_term $ format_term $ proc_arg $ kind_arg
          $ spec_term $ samples $ repeat)

(* --- tech ----------------------------------------------------------- *)

let tech_cmd =
  let run tele format =
    match format with
    | Json -> emit_json tele (Serve.Protocol.request Serve.Protocol.Tech)
    | Text ->
      List.iter
        (fun p ->
          Format.printf "%a@.@." Technology.Process.pp_evaluation
            (Technology.Process.evaluate p))
        Technology.Process.builtin
  in
  let info = Cmd.info "tech" ~doc:"Characterise the built-in technologies." in
  Cmd.v info Term.(const run $ telemetry_term $ format_term)

(* --- serve ----------------------------------------------------------- *)

let hostport_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg "expected HOST:PORT")
    | Some i ->
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      (match int_of_string_opt port with
       | Some p when p > 0 && p < 65536 -> Ok (host, p)
       | _ -> Error (`Msg (Printf.sprintf "bad port %S" port)))
  in
  let print fmt (h, p) = Format.fprintf fmt "%s:%d" h p in
  Arg.conv (parse, print)

let socket_arg =
  Arg.(value & opt string "losac.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~env:(Cmd.Env.info "LOSAC_SOCKET")
           ~doc:"Unix-domain socket path of the job daemon.")

let tcp_arg =
  Arg.(value & opt (some hostport_conv) None
       & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"TCP address of the job daemon.")

let serve_cmd =
  let queue_limit =
    Arg.(value & opt int 64
         & info [ "queue-limit" ] ~docv:"N"
             ~doc:"Admission bound: submissions beyond $(docv) queued \
                   jobs are rejected with status $(b,overloaded).")
  in
  let max_frame =
    Arg.(value & opt int Serve.Frame.max_frame_default
         & info [ "max-frame" ] ~docv:"BYTES"
             ~doc:"Per-frame payload cap; oversized frames close the \
                   connection.")
  in
  let job_timeout =
    Arg.(value & opt (some float) None
         & info [ "job-timeout" ] ~docv:"SEC"
             ~doc:"Default cooperative deadline applied to jobs that \
                   carry no timeout of their own.")
  in
  let executors =
    Arg.(value & opt int (Serve.Server.default_executors ())
         & info [ "executors" ] ~docv:"N"
             ~doc:"Concurrent executor domains (default min(4, cores)): \
                   up to $(docv) jobs run at once, each with its own \
                   context-local cache/telemetry flags, sharing \
                   the domain pool and warm memo caches.")
  in
  let run tele socket tcp queue_limit max_frame job_timeout executors =
    Format.printf "losac: serving on %s%s (queue limit %d, %d executor(s))@."
      socket
      (match tcp with
       | Some (h, p) -> Printf.sprintf " and %s:%d" h p
       | None -> "")
      queue_limit
      (max 1 (min 16 executors));
    Format.print_flush ();
    let served =
      Serve.Server.run
        {
          Serve.Server.socket_path = Some socket;
          tcp;
          queue_limit;
          max_frame;
          default_timeout_s = job_timeout;
          executors;
        }
    in
    Format.printf "losac: drained, served %d job(s)@." served;
    telemetry_finish tele
  in
  let info =
    Cmd.info "serve"
      ~doc:"Run the synthesis job daemon: accept losac.job/1 requests \
            over a Unix-domain (and optionally TCP) socket, execute them \
            on N concurrent executor domains sharing the domain pool and \
            the process-wide memo caches (kept warm across requests), \
            and drain gracefully on SIGTERM/SIGINT."
  in
  Cmd.v info
    Term.(const run $ telemetry_term $ socket_arg $ tcp_arg $ queue_limit
          $ max_frame $ job_timeout $ executors)

(* --- job -------------------------------------------------------------- *)

let job_cmd =
  let workload_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"WORKLOAD"
             ~doc:"One of ping, sleep, tech, stats, size, synth, mc, \
                   corners, verify, optimize, cancel.")
  in
  let target =
    Arg.(value & opt int 0
         & info [ "target" ] ~docv:"ID"
             ~doc:"Job id to cancel, for $(b,cancel).  Cancellation is \
                   connection-scoped: only jobs submitted on the same \
                   connection can be reached, so this standalone form \
                   mostly exercises the wire path — prefer \
                   $(b,--cancel-after) to cancel a job this command \
                   itself submitted.")
  in
  let cancel_after =
    Arg.(value & opt (some float) None
         & info [ "cancel-after" ] ~docv:"SEC"
             ~doc:"After submitting the job, wait $(docv) seconds and \
                   send a $(b,cancel) for it on the same connection; \
                   print the cancel acknowledgement on stderr and the \
                   job's final response (normally status \
                   $(b,cancelled)) on stdout.")
  in
  let case =
    Arg.(value & opt case_conv Core.Flow.Case4
         & info [ "case" ] ~docv:"N" ~doc:"Flow case for $(b,synth) (1..4).")
  in
  let topology =
    Arg.(value & opt string "folded-cascode"
         & info [ "topology" ] ~docv:"NAME" ~doc:"Topology for $(b,size).")
  in
  let n =
    Arg.(value & opt pos_int 50
         & info [ "n"; "count" ] ~docv:"N" ~doc:"Sample count for $(b,mc).")
  in
  let samples =
    Arg.(value & opt pos_int 30
         & info [ "samples" ] ~docv:"N"
             ~doc:"Monte Carlo sample count for $(b,verify).")
  in
  let seconds =
    Arg.(value & opt float 0.1
         & info [ "seconds" ] ~docv:"SEC" ~doc:"Duration of $(b,sleep).")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SEC"
             ~doc:"Cooperative job deadline; exceeding it fails the job \
                   with a $(b,timeout) error.")
  in
  let telemetry =
    Arg.(value & flag
         & info [ "telemetry" ]
             ~doc:"Ask the server to stream a telemetry event (cache and \
                   pool snapshot) before the result.")
  in
  let canonical =
    Arg.(value & flag
         & info [ "canonical" ]
             ~doc:"Print the canonical (meta-stripped) response form, \
                   byte-identical to the same subcommand run with \
                   $(b,--format json).")
  in
  let show_events =
    Arg.(value & flag
         & info [ "show-events" ]
             ~doc:"Print interleaved ack/started/telemetry events to \
                   stderr as they arrive.")
  in
  let run tele proc kind spec workload case topology n samples seconds starts
      budget strategy lut timeout telemetry socket tcp canonical show_events
      target cancel_after =
    (* mc/verify carry their seed as a workload field; it resolves exactly
       like Exec.Ctx.seed does (--seed > LOSAC_SEED > 42) so a served mc
       and [losac verify --format json] agree. *)
    let seed = Exec.Ctx.seed ?override:tele.seed None in
    let workload =
      match workload with
      | "ping" -> Ok Serve.Protocol.Ping
      | "sleep" -> Ok (Serve.Protocol.Sleep { seconds })
      | "tech" -> Ok Serve.Protocol.Tech
      | "stats" -> Ok Serve.Protocol.Stats
      | "synth" -> Ok (Serve.Protocol.Synth { case })
      | "size" -> Ok (Serve.Protocol.Size { topology })
      | "mc" -> Ok (Serve.Protocol.Mc { n; seed })
      | "corners" -> Ok Serve.Protocol.Corners
      | "verify" -> Ok (Serve.Protocol.Verify { samples; seed })
      | "optimize" ->
        Ok (Serve.Protocol.Optimize { starts; budget; strategy; lut })
      | "cancel" -> Ok (Serve.Protocol.Cancel { target })
      | other -> Error other
    in
    match workload with
    | Error other ->
      Format.eprintf "losac: unknown workload %s@." other;
      exit 2
    | Ok workload ->
      let req =
        request_of ?timeout_s:timeout ~telemetry tele proc kind spec workload
      in
      let client =
        match
          match tcp with
          | Some (host, port) -> Serve.Client.connect_tcp ~host ~port ()
          | None -> Serve.Client.connect socket
        with
        | client -> client
        | exception Serve.Client.Connect_failed msg ->
          Format.eprintf "losac: %s@." msg;
          exit 1
      in
      let on_event e =
        if show_events then
          Format.eprintf "%s@."
            (Obs.Json.to_string (Serve.Protocol.event_to_json e))
      in
      let r =
        match cancel_after with
        | None -> Serve.Client.call ~on_event client req
        | Some delay ->
          (* Same-connection cancellation round-trip: submit, wait, send
             the cancel, read its acknowledgement, then the job's final
             (a cancel answer always overtakes the job it targets). *)
          Serve.Client.submit client req;
          Unix.sleepf delay;
          let cancel_req =
            Serve.Protocol.request
              ~id:(req.Serve.Protocol.id + 1)
              (Serve.Protocol.Cancel { target = req.Serve.Protocol.id })
          in
          Serve.Client.submit client cancel_req;
          let ack =
            Serve.Client.await ~on_event client cancel_req.Serve.Protocol.id
          in
          Format.eprintf "%s@."
            (Obs.Json.to_string (Serve.Protocol.response_to_json ack));
          Serve.Client.await ~on_event client req.Serve.Protocol.id
      in
      Serve.Client.close client;
      print_string
        (if canonical then Serve.Protocol.canonical r
         else Obs.Json.to_string (Serve.Protocol.response_to_json r));
      print_newline ();
      (match r.Serve.Protocol.status with
       | Serve.Protocol.Done -> ()
       | Serve.Protocol.Cancelled -> exit 3
       | _ -> exit 1)
  in
  let info =
    Cmd.info "job"
      ~doc:"Submit one job to a running $(b,losac serve) daemon and print \
            its response.  Exit status: 0 on success, 3 when the job \
            ended $(b,cancelled), 1 on any other failure."
  in
  Cmd.v info
    Term.(const run $ telemetry_term $ proc_arg $ kind_arg $ spec_term
          $ workload_arg $ case $ topology $ n $ samples $ seconds
          $ starts_arg $ budget_arg $ strategy_arg $ lut_arg
          $ timeout $ telemetry $ socket_arg $ tcp_arg $ canonical
          $ show_events $ target $ cancel_after)

(* A simulator failure that escapes a text-mode command is reported as
   one line, [losac: <kind>: <message>], with the exit status 1 that the
   JSON mode gives its typed error; any other exception stays an
   internal error (125). *)
let () =
  let info =
    Cmd.info "losac" ~version:"1.0.0"
      ~doc:"Layout-oriented synthesis of high performance analog circuits."
  in
  let cmd =
    Cmd.group info
      [ size_cmd; synth_cmd; layout_cmd; verify_cmd; optimize_cmd;
        stats_cmd; tech_cmd; serve_cmd; job_cmd ]
  in
  exit
    (try Cmd.eval ~catch:false cmd with
     | e ->
       let bt = Printexc.get_raw_backtrace () in
       let analysis = if Array.length Sys.argv > 1 then Sys.argv.(1) else "losac" in
       (match Sim.Sim_error.of_exn ~analysis e with
        | Some err ->
          Format.eprintf "losac: %s: %s@." (Sim.Sim_error.kind err)
            (Sim.Sim_error.message err);
          1
        | None ->
          Format.eprintf "losac: internal error, uncaught exception:@.%s@.%s@."
            (Printexc.to_string e)
            (Printexc.raw_backtrace_to_string bt);
          Cmd.Exit.internal_error))
