module J = Obs.Json
module P = Protocol

(* --- deterministic payload builders ----------------------------------- *)

let perf_to_json (p : Comdiac.Performance.t) =
  J.Obj
    [
      ("dc_gain_db", J.Num p.Comdiac.Performance.dc_gain_db);
      ("gbw", J.Num p.Comdiac.Performance.gbw);
      ("phase_margin", J.Num p.Comdiac.Performance.phase_margin);
      ("slew_rate", J.Num p.Comdiac.Performance.slew_rate);
      ("cmrr_db", J.Num p.Comdiac.Performance.cmrr_db);
      ("offset", J.Num p.Comdiac.Performance.offset);
      ("output_resistance", J.Num p.Comdiac.Performance.output_resistance);
      ("input_noise", J.Num p.Comdiac.Performance.input_noise);
      ("thermal_noise_density",
       J.Num p.Comdiac.Performance.thermal_noise_density);
      ("flicker_noise_density",
       J.Num p.Comdiac.Performance.flicker_noise_density);
      ("power", J.Num p.Comdiac.Performance.power);
    ]

let perf_of_json json =
  let f name = Option.bind (J.member name json) J.to_float in
  match
    ( f "dc_gain_db", f "gbw", f "phase_margin", f "slew_rate", f "cmrr_db",
      f "offset", f "output_resistance", f "input_noise",
      f "thermal_noise_density", f "flicker_noise_density", f "power" )
  with
  | ( Some dc_gain_db, Some gbw, Some phase_margin, Some slew_rate,
      Some cmrr_db, Some offset, Some output_resistance, Some input_noise,
      Some thermal_noise_density, Some flicker_noise_density, Some power ) ->
    Some
      {
        Comdiac.Performance.dc_gain_db; gbw; phase_margin; slew_rate;
        cmrr_db; offset; output_resistance; input_noise;
        thermal_noise_density; flicker_noise_density; power;
      }
  | _ -> None

let flow_payload (r : Core.Flow.result) =
  let report = r.Core.Flow.report in
  J.Obj
    [
      ("case", J.Str (Core.Flow.case_label r.Core.Flow.case));
      ("description", J.Str (Core.Flow.case_description r.Core.Flow.case));
      ("layout_calls", J.Num (float_of_int r.Core.Flow.layout_calls));
      ("sizing_passes", J.Num (float_of_int r.Core.Flow.sizing_passes));
      ("trajectory", J.Arr (List.map (fun d -> J.Num d) r.Core.Flow.trajectory));
      ("synthesized", perf_to_json r.Core.Flow.synthesized);
      ("extracted", perf_to_json r.Core.Flow.extracted);
      ("floorplan",
       J.Obj
         [
           ("w", J.Num (float_of_int report.Cairo_layout.Plan.total_w));
           ("h", J.Num (float_of_int report.Cairo_layout.Plan.total_h));
         ]);
      ("device_styles",
       J.Arr
         (List.map
            (fun (name, style) ->
              J.Obj
                [
                  ("name", J.Str name);
                  ("nf", J.Num (float_of_int style.Device.Folding.nf));
                ])
            report.Cairo_layout.Plan.device_styles));
    ]

let stats_to_json (s : Comdiac.Montecarlo.stats) =
  J.Obj
    [
      ("n", J.Num (float_of_int s.Comdiac.Montecarlo.n));
      ("mean", J.Num s.Comdiac.Montecarlo.mean);
      ("std", J.Num s.Comdiac.Montecarlo.std);
      ("min", J.Num s.Comdiac.Montecarlo.minimum);
      ("max", J.Num s.Comdiac.Montecarlo.maximum);
    ]

let mc_payload ~n ~seed (r : Comdiac.Montecarlo.result) =
  J.Obj
    [
      ("n", J.Num (float_of_int n));
      ("seed", J.Num (float_of_int seed));
      ("converged", J.Num (float_of_int (List.length r.Comdiac.Montecarlo.samples)));
      ("offset", stats_to_json r.Comdiac.Montecarlo.offset_stats);
      ("gain_db", stats_to_json r.Comdiac.Montecarlo.gain_stats);
      ("gbw", stats_to_json r.Comdiac.Montecarlo.gbw_stats);
      ("predicted_offset_sigma",
       J.Num r.Comdiac.Montecarlo.predicted_offset_sigma);
    ]

let corners_payload (r : Comdiac.Robustness.result) =
  J.Obj
    [
      ("points",
       J.Arr
         (List.map
            (fun (p : Comdiac.Robustness.point) ->
              J.Obj
                [
                  ("corner",
                   J.Str (Technology.Corner.to_string p.Comdiac.Robustness.corner));
                  ("temperature_k", J.Num p.Comdiac.Robustness.temperature);
                  ("gbw", J.Num p.Comdiac.Robustness.gbw);
                  ("phase_margin", J.Num p.Comdiac.Robustness.phase_margin);
                  ("dc_gain_db", J.Num p.Comdiac.Robustness.dc_gain_db);
                  ("power", J.Num p.Comdiac.Robustness.power);
                  ("biased", J.Bool p.Comdiac.Robustness.biased);
                ])
            r.Comdiac.Robustness.points));
      ("worst_gbw", J.Num r.Comdiac.Robustness.worst_gbw);
      ("worst_pm", J.Num r.Comdiac.Robustness.worst_pm);
      ("all_biased", J.Bool r.Comdiac.Robustness.all_biased);
    ]

let devices_payload amp =
  J.Arr
    (List.map
       (fun (d : Device.Mos.t) ->
         J.Obj
           [
             ("name", J.Str d.Device.Mos.name);
             ("w", J.Num d.Device.Mos.w);
             ("l", J.Num d.Device.Mos.l);
             ("nf", J.Num (float_of_int d.Device.Mos.style.Device.Folding.nf));
           ])
       (Comdiac.Amp.mos_devices amp))

let tech_payload () =
  J.Obj
    [
      ("technologies",
       J.Arr
         (List.map
            (fun p ->
              let e = Technology.Process.evaluate p in
              J.Obj
                [
                  ("name", J.Str e.Technology.Process.proc_name);
                  ("kp_n", J.Num e.Technology.Process.kp_n);
                  ("kp_p", J.Num e.Technology.Process.kp_p);
                  ("cox_areal", J.Num e.Technology.Process.cox_areal);
                  ("ft_n_at_veff", J.Num e.Technology.Process.ft_n_at_veff);
                  ("ft_p_at_veff", J.Num e.Technology.Process.ft_p_at_veff);
                  ("gate_cap_min", J.Num e.Technology.Process.gate_cap_min);
                  ("diff_cap_per_width",
                   J.Num e.Technology.Process.diff_cap_per_width);
                  ("metal1_cap_per_len",
                   J.Num e.Technology.Process.metal1_cap_per_len);
                ])
            Technology.Process.builtin));
    ]

(* Volatile by nature: the observability snapshot. *)
let stats_payload () =
  let caches =
    List.map
      (fun (s : Cache.Memo.stats) ->
        J.Obj
          [
            ("name", J.Str s.Cache.Memo.name);
            ("hits", J.Num (float_of_int s.Cache.Memo.hits));
            ("misses", J.Num (float_of_int s.Cache.Memo.misses));
            ("evictions", J.Num (float_of_int s.Cache.Memo.evictions));
            ("entries", J.Num (float_of_int s.Cache.Memo.entries));
            ("capacity", J.Num (float_of_int s.Cache.Memo.capacity));
            ("hit_rate", J.Num (Cache.Memo.hit_rate s));
          ])
      (Cache.Memo.registry ())
  in
  let workers =
    List.map
      (fun (w : Par.Pool.worker_stat) ->
        J.Obj
          [
            ("domain", J.Num (float_of_int w.Par.Pool.ws_domain));
            ("role", J.Str w.Par.Pool.ws_role);
            ("tasks", J.Num (float_of_int w.Par.Pool.ws_tasks));
            ("busy_us", J.Num w.Par.Pool.ws_busy_us);
            ("wait_us", J.Num w.Par.Pool.ws_wait_us);
            ("busy_frac", J.Num w.Par.Pool.ws_busy_frac);
            ("steals", J.Num (float_of_int w.Par.Pool.ws_steals));
            ("warmup_us", J.Num w.Par.Pool.ws_warmup_us);
          ])
      (Par.Pool.worker_stats ())
  in
  let is_exec (w : Par.Pool.worker_stat) =
    String.length w.Par.Pool.ws_role >= 4
    && String.sub w.Par.Pool.ws_role 0 4 = "exec"
  in
  let executors =
    List.length (List.filter is_exec (Par.Pool.worker_stats ()))
  in
  J.Obj
    [
      ("caches", J.Arr caches);
      ("pool",
       J.Obj
         [
           ("workers", J.Num (float_of_int (Par.Pool.num_workers ())));
           ("executors", J.Num (float_of_int executors));
           ("queue_depth", J.Num (float_of_int (Par.Pool.queue_depth ())));
           ("domains", J.Arr workers);
         ]);
      ("luts_built", J.Num (float_of_int (Device.Lut.tables_built ())));
      ("lut_trust",
       (* the Device.Lut trust guard: exact-model disagreement over the
          grid cells this process actually interpolated from *)
       (let t = Device.Lut.trust_check () in
        J.Obj
          [
            ("cells_visited", J.Num (float_of_int t.Device.Lut.cells_visited));
            ("max_rel_err", J.Num t.Device.Lut.max_rel_err);
          ]));
    ]

let point_to_json (p : Opt.Objective.point) =
  J.Obj
    [
      ("vec", J.Arr (List.map (fun v -> J.Num v) (Array.to_list p.Opt.Objective.vec)));
      ("feasible", J.Bool p.Opt.Objective.feasible);
      ("gbw", J.Num p.Opt.Objective.gbw);
      ("phase_margin", J.Num p.Opt.Objective.pm);
      ("gain_db", J.Num p.Opt.Objective.gain_db);
      ("power", J.Num p.Opt.Objective.power);
      ("area", J.Num p.Opt.Objective.area);
      ("penalty", J.Num p.Opt.Objective.penalty);
      ("score", J.Num p.Opt.Objective.score);
    ]

let optimize_payload (res : Opt.Search.result) =
  J.Obj
    ([
       ("strategy", J.Str (Opt.Search.strategy_to_string res.Opt.Search.strategy));
       ("seed", J.Num (float_of_int res.Opt.Search.seed));
       ("starts", J.Num (float_of_int res.Opt.Search.starts));
       ("budget", J.Num (float_of_int res.Opt.Search.budget));
       ("lut", J.Bool res.Opt.Search.lut);
       ("evals",
        J.Obj
          [
            ("coarse", J.Num (float_of_int res.Opt.Search.evals_coarse));
            ("polish", J.Num (float_of_int res.Opt.Search.evals_polish));
            ("sim", J.Num (float_of_int res.Opt.Search.evals_sim));
          ]);
       ("best", point_to_json res.Opt.Search.best);
       ("front", J.Arr (List.map point_to_json res.Opt.Search.front));
     ]
    @ (match res.Opt.Search.best_design with
       | None -> []
       | Some d ->
         [
           ("design",
            J.Obj
              [
                ("devices", devices_payload d.Comdiac.Folded_cascode.amp);
                ("i1", J.Num d.Comdiac.Folded_cascode.i1);
                ("i2", J.Num d.Comdiac.Folded_cascode.i2);
                ("l_casc", J.Num d.Comdiac.Folded_cascode.l_casc);
                ("iterations",
                 J.Num (float_of_int d.Comdiac.Folded_cascode.iterations));
              ]);
         ])
    @
    match res.Opt.Search.best_performance with
    | None -> []
    | Some p -> [ ("performance", perf_to_json p) ])

(* --- workload execution ----------------------------------------------- *)

let nominal_design ~proc ~kind ~spec =
  Comdiac.Folded_cascode.size ~proc ~kind ~spec
    ~parasitics:Comdiac.Parasitics.single_fold

(* [Sleep] cooperates with the deadline in slices so timed-out sleeps
   abandon early, like a real analysis at a sample boundary. *)
let sleep ~ctx seconds =
  let deadline_check () = Exec.Ctx.check_deadline ~analysis:"sleep" ctx in
  let until = Obs.Clock.monotonic_s () +. seconds in
  let rec go () =
    deadline_check ();
    let remaining = until -. Obs.Clock.monotonic_s () in
    if remaining > 0.0 then begin
      Unix.sleepf (Float.min remaining 0.05);
      go ()
    end
  in
  go ()

let classify ~analysis f =
  match f () with
  | v -> Ok v
  | exception e ->
    (match Sim.Sim_error.of_exn ~analysis e with
     | Some err -> Error err
     | None -> raise e)

let run_workload ~ctx (r : P.request) proc =
  let kind = r.P.kind and spec = r.P.spec in
  match r.P.workload with
  | P.Cancel _ ->
    (* Only meaningful against a live daemon connection, where the
       reader thread intercepts it before execution (see Server). *)
    Error "cancel requires a running daemon (nothing to cancel one-shot)"
  | P.Ping -> Ok (Ok (J.Obj [ ("pong", J.Bool true) ]))
  | P.Sleep { seconds } ->
    Ok
      (classify ~analysis:"sleep" (fun () ->
         sleep ~ctx:(Some ctx) seconds;
         J.Obj [ ("slept", J.Num seconds) ]))
  | P.Tech -> Ok (Ok (tech_payload ()))
  | P.Stats -> Ok (Ok (stats_payload ()))
  | P.Synth { case } ->
    Ok
      (Result.map flow_payload
         (Core.Flow.run_result ~ctx ~kind ~spec case))
  | P.Size { topology } ->
    let icmr_spec = { spec with Comdiac.Spec.icmr = (1.2, 2.1) } in
    let sizer =
      match topology with
      | "folded-cascode" | "fc" ->
        Some
          (fun () ->
            let d = nominal_design ~proc ~kind ~spec in
            (d.Comdiac.Folded_cascode.amp,
             [
               ("predicted_gbw", J.Num d.Comdiac.Folded_cascode.predicted_gbw);
               ("predicted_pm", J.Num d.Comdiac.Folded_cascode.predicted_pm);
               ("predicted_gain_db",
                J.Num d.Comdiac.Folded_cascode.predicted_gain_db);
               ("iterations",
                J.Num (float_of_int d.Comdiac.Folded_cascode.iterations));
             ]))
      | "two-stage" | "miller" ->
        Some
          (fun () ->
            ((Comdiac.Two_stage.size ~proc ~kind ~spec:icmr_spec
                ~parasitics:Comdiac.Parasitics.single_fold)
               .Comdiac.Two_stage.amp, []))
      | "5t" | "simple" ->
        Some
          (fun () ->
            ((Comdiac.Simple_ota.size ~proc ~kind ~spec:icmr_spec
                ~parasitics:Comdiac.Parasitics.single_fold)
               .Comdiac.Simple_ota.amp, []))
      | _ -> None
    in
    (match sizer with
     | None ->
       Error
         (Printf.sprintf
            "unknown topology %S (folded-cascode|two-stage|5t)" topology)
     | Some size ->
       Ok
         (classify ~analysis:"size" (fun () ->
            (* sizing has no inner boundary: poll the deadline once *)
            Exec.Ctx.check_deadline ~analysis:"size" (Some ctx);
            let amp, predicted = size () in
            let tb = Comdiac.Testbench.make ~proc ~kind ~spec amp in
            J.Obj
              ([
                 ("topology", J.Str topology);
                 ("devices", devices_payload amp);
               ]
               @ predicted
               @ [ ("performance", perf_to_json (Comdiac.Testbench.performance tb)) ]))))
  | P.Mc { n; seed } ->
    Ok
      (classify ~analysis:"montecarlo" (fun () -> nominal_design ~proc ~kind ~spec)
       |> Fun.flip Result.bind (fun design ->
         Result.map
           (mc_payload ~n ~seed)
           (Comdiac.Montecarlo.run_result ~seed ~n ~ctx ~kind ~spec
              design.Comdiac.Folded_cascode.amp)))
  | P.Corners ->
    Ok
      (classify ~analysis:"robustness" (fun () -> nominal_design ~proc ~kind ~spec)
       |> Fun.flip Result.bind (fun design ->
         Result.map corners_payload
           (Comdiac.Robustness.run_result ~ctx ~kind ~spec
              design.Comdiac.Folded_cascode.amp)))
  | P.Optimize { starts; budget; strategy; lut } ->
    let strategy =
      match Opt.Search.strategy_of_string strategy with
      | Some s -> s
      | None -> Opt.Search.Nelder_mead
    in
    Ok
      (Result.map optimize_payload
         (Opt.Search.run_result ~ctx ~starts ~budget ~strategy ~lut ~kind
            ~spec ()))
  | P.Verify { samples; seed } ->
    Ok
      (classify ~analysis:"verify" (fun () -> nominal_design ~proc ~kind ~spec)
       |> Fun.flip Result.bind (fun design ->
         let amp = design.Comdiac.Folded_cascode.amp in
         Result.bind
           (Comdiac.Montecarlo.run_result ~seed ~n:samples ~ctx ~kind ~spec amp)
           (fun mc ->
             let rebias p =
               Comdiac.Folded_cascode.rebias ~proc:p ~kind ~spec design
             in
             Result.bind
               (Comdiac.Robustness.run_result ~rebias ~ctx ~kind ~spec amp)
               (fun rob ->
                 classify ~analysis:"verify" (fun () ->
                   let tb = Comdiac.Testbench.make ~proc ~kind ~spec amp in
                   let psrr_db =
                     Sim.Measure.db (Comdiac.Testbench.psrr tb)
                   in
                   let lo, hi = Comdiac.Testbench.common_mode_range tb in
                   J.Obj
                     [
                       ("montecarlo", mc_payload ~n:samples ~seed mc);
                       ("corners", corners_payload rob);
                       ("psrr_db", J.Num psrr_db);
                       ("common_mode_range",
                        J.Arr [ J.Num lo; J.Num hi ]);
                     ])))))

(* --- the result memo ---------------------------------------------------- *)

(* A [Done] payload is a deterministic function of the workload with its
   parameters, technology, model kind, spec and resolved seed; the id,
   pool width, telemetry and deadline change how a job runs, never what
   it answers.  A warm repeat is one lookup; failures are not stored. *)
let result_memo :
    (P.workload * string * Device.Model.kind * Comdiac.Spec.t * int, J.t)
    Cache.Memo.t =
  Cache.Memo.create ~name:"serve.result" ~shards:4 ~capacity:256 ()

(* carries a miss's non-[Done] outcome past the memo, which stores nothing *)
exception Unstored of ((J.t, Sim.Sim_error.t) result, string) result

let run_memoized ?cancel (r : P.request) proc =
  let ctx =
    Exec.Ctx.with_timeout r.P.timeout_s
      (Exec.Ctx.make ?jobs:r.P.jobs ?cache:r.P.cache
         ?seed:r.P.seed
         ?telemetry:(if r.P.telemetry then Some true else None)
         ~label:(P.workload_name r.P.workload) ?cancel proc)
  in
  match r.P.workload with
  | P.Ping | P.Sleep _ | P.Tech | P.Stats | P.Cancel _ -> run_workload ~ctx r proc
  | P.Synth _ | P.Size _ | P.Mc _ | P.Corners | P.Verify _ | P.Optimize _ ->
    let computed = ref false in
    let lookup () =
      Cache.Memo.find_or_compute result_memo
        (r.P.workload, r.P.proc, r.P.kind, r.P.spec, Exec.Ctx.seed (Some ctx))
        (fun () ->
          computed := true;
          match run_workload ~ctx r proc with
          | Ok (Ok payload) -> payload
          | outcome -> raise (Unstored outcome))
    in
    (match
       match r.P.cache with
       | Some on -> Cache.Config.with_enabled on lookup
       | None -> lookup ()
     with
     | payload when !computed -> Ok (Ok payload)
     | payload ->
       (* a hit still honours the deadline and the cancellation token *)
       let analysis = P.workload_name r.P.workload in
       Ok
         (classify ~analysis (fun () ->
            Exec.Ctx.check_deadline ~analysis (Some ctx);
            payload))
     | exception Unstored outcome -> outcome)

let execute ?cancel (r : P.request) =
  let t0 = Obs.Clock.monotonic_s () in
  let finish status payload =
    {
      P.rid = r.P.id;
      workload = P.workload_name r.P.workload;
      status;
      payload;
      meta = [ ("elapsed_s", J.Num (Obs.Clock.monotonic_s () -. t0)) ];
    }
  in
  match
    match Technology.Process.find r.P.proc with
    | proc -> run_memoized ?cancel r proc
    | exception Not_found ->
      Error
        (Printf.sprintf "unknown technology %S (have: %s)" r.P.proc
           (String.concat ", "
              (List.map
                 (fun p -> p.Technology.Process.name)
                 Technology.Process.builtin)))
  with
  | Ok (Ok payload) -> finish P.Done payload
  | Ok (Error sim) -> finish (P.Failed sim) J.Null
  | Error msg -> finish (P.Bad_request msg) J.Null
  | exception e ->
    finish (P.Internal (Printexc.to_string e)) J.Null
