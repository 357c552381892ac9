(* Per-layer accounting for traced runs: named sums over the traced ops
   (divided by the op count when printed), and readers over the
   program's own telemetry (spans, profiler sites, counters, memo and
   pool accounts). *)

(* The per-layer metrics every traced run prints, with their units; a
   layer a workload never enters reads 0. *)
let metrics =
  [ ("flow.layout_calls", "count"); ("flow.sizing_passes", "count");
    ("comdiac.size_s", "s"); ("comdiac.plan_evals", "count");
    ("comdiac.mc_s", "s"); ("comdiac.corners_s", "s");
    ("cairo.parasitic_s", "s"); ("cairo.generation_s", "s");
    ("sim.tran_s", "s"); ("sim.dc_s", "s"); ("sim.ac_s", "s");
    ("sim.noise_s", "s"); ("sim.newton_iters", "count");
    ("sim.ac_solves", "count"); ("linalg.real_factors", "count");
    ("linalg.cx_factors", "count"); ("linalg.factor_s", "s");
    ("cache.hit_ratio", "ratio"); ("cache.device_eval_hit_ratio", "ratio");
    ("device.lut_build_s", "s"); ("par.busy_frac", "ratio");
    ("par.queue_wait_s", "s"); ("par.steals", "count");
    ("opt.search_s", "s"); ("opt.verify_s", "s");
    ("opt.points_per_s", "1/s"); ("opt.evals_coarse", "count");
    ("opt.evals_polish", "count"); ("opt.evals_sim", "count");
    ("serve.exec_s", "s"); ("serve.queue_wait_s", "s");
    ("serve.transport_s", "s"); ("serve.response_bytes", "bytes");
    ("serve.executor_busy_frac", "ratio"); ("serve.ping_s", "s");
    ("serve.warm_synth_s", "s"); ("trace.layer_coverage", "ratio") ]

(* What a traced run accumulates: per-op sums of the layer metrics (or
   values already final), the layer rows (calls, seconds), and the op
   times with and without telemetry. *)
type acc = {
  sums : (string, float) Hashtbl.t;
  finals : (string, float) Hashtbl.t;
  rows : (string, int * float) Hashtbl.t;
  mutable ops : int;
  mutable traced : float list;
  mutable untraced : float list;
}

let create () =
  { sums = Hashtbl.create 64; finals = Hashtbl.create 16;
    rows = Hashtbl.create 16; ops = 0; traced = []; untraced = [] }

let add a name v =
  Hashtbl.replace a.sums name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt a.sums name))

let set a name v = Hashtbl.replace a.finals name v

let row ?(calls = 1) a layer v =
  let c, s = Option.value ~default:(0, 0.0) (Hashtbl.find_opt a.rows layer) in
  Hashtbl.replace a.rows layer (c + calls, s +. v)

(* One traced op and the untraced run of the same op. *)
let op a ~traced ~untraced =
  a.ops <- a.ops + 1;
  a.traced <- traced :: a.traced;
  a.untraced <- untraced :: a.untraced

let per_op a =
  List.map
    (fun (name, unit) ->
      match Hashtbl.find_opt a.finals name with
      | Some v -> (name, unit, v)
      | None ->
        let s = Option.value ~default:0.0 (Hashtbl.find_opt a.sums name) in
        (name, unit, s /. float_of_int (max 1 a.ops)))
    metrics

(* Print the layer record and the per-layer result. *)
let finish a ~workload ~attempted ~failed =
  let layers =
    Hashtbl.fold (fun l (c, s) acc -> (l, c, s) :: acc) a.rows []
    |> List.sort compare
  in
  let overhead = (Harness.median a.traced /. Harness.median a.untraced) -. 1.0 in
  let cov = Harness.print_layers ~workload ~op_times:a.traced ~layers ~overhead in
  set a "trace.layer_coverage" cov;
  Harness.print_result ~attempted ~failed (per_op a)

(* --- program telemetry ------------------------------------------------- *)

(* Zero every span, profiler site and metric before a traced op. *)
let reset_telemetry () =
  Obs.Trace.reset ();
  Obs.Prof.reset ();
  Obs.Metrics.reset ()

let counter = Obs.Metrics.counter

let site name =
  List.find_opt (fun (s : Obs.Prof.site) -> s.Obs.Prof.name = name)
    (Obs.Prof.sites ())

let self_s name =
  match site name with Some s -> s.Obs.Prof.self_us *. 1e-6 | None -> 0.0

let cum_s name =
  match site name with Some s -> s.Obs.Prof.cum_us *. 1e-6 | None -> 0.0

let calls name =
  match site name with Some s -> s.Obs.Prof.calls | None -> 0

(* Summed duration of the retained spans called [name] whose [mode]
   argument is [mode]. *)
let span_mode_s name mode =
  List.fold_left
    (fun acc (s : Obs.Trace.span) ->
      if s.Obs.Trace.name = name
         && List.assoc_opt "mode" s.Obs.Trace.args = Some (Obs.Trace.Str mode)
      then acc +. (s.Obs.Trace.dur_us *. 1e-6)
      else acc)
    0.0 (Obs.Trace.spans ())

(* Memo hit ratios over everything looked up since the memos were
   cleared: all memos, and the device.eval memo alone. *)
let memo_ratios () =
  let reg = Cache.Memo.registry () in
  let ratio l =
    let h = List.fold_left (fun a (s : Cache.Memo.stats) -> a + s.Cache.Memo.hits) 0 l in
    let m = List.fold_left (fun a (s : Cache.Memo.stats) -> a + s.Cache.Memo.misses) 0 l in
    if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
  in
  ( ratio reg,
    ratio (List.filter (fun (s : Cache.Memo.stats) -> s.Cache.Memo.name = "device.eval") reg) )

(* Pool accounting summed over every participating domain. *)
type pool = { busy_us : float; wait_us : float; steals : int }

let pool () =
  List.fold_left
    (fun p (w : Par.Pool.worker_stat) ->
      { busy_us = p.busy_us +. w.Par.Pool.ws_busy_us;
        wait_us = p.wait_us +. w.Par.Pool.ws_wait_us;
        steals = p.steals + w.Par.Pool.ws_steals })
    { busy_us = 0.0; wait_us = 0.0; steals = 0 }
    (Par.Pool.worker_stats ())

(* Record the per-op program counters shared by the in-process
   workloads. *)
let add_program_counters a ~pool0 ~wall_s =
  add a "comdiac.plan_evals" (counter "comdiac.fc.plan_evals");
  add a "sim.newton_iters" (counter "sim.dcop.newton_iters");
  add a "sim.ac_solves" (counter "sim.acs.solves");
  add a "linalg.real_factors" (counter "linalg.real.factors");
  add a "linalg.cx_factors" (counter "linalg.cx.factors");
  add a "linalg.factor_s"
    (counter "linalg.real.factor_s" +. counter "linalg.cx.factor_s");
  let hit, dev = memo_ratios () in
  add a "cache.hit_ratio" hit;
  add a "cache.device_eval_hit_ratio" dev;
  let p = pool () in
  let busy = (p.busy_us -. pool0.busy_us) *. 1e-6 in
  let n = Par.Pool.num_workers () + 1 in
  add a "par.busy_frac"
    (if Par.Pool.num_workers () = 0 then 0.0
     else busy /. (float_of_int n *. wall_s));
  add a "par.queue_wait_s" ((p.wait_us -. pool0.wait_us) *. 1e-6);
  add a "par.steals" (float_of_int (p.steals - pool0.steals))
