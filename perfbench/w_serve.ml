(* serve: a real `losac serve --executors 2` daemon and a closed loop of
   2 connections, the benchmark acting as the client.  Most jobs are warm
   repeats of requests primed during set-up: the runs ROADMAP.md names as
   the ones users make (the four Table-1 syntheses, Monte Carlo n=200,
   the corner sweep, `losac optimize`), a synthesis at a seeded spec and
   a sizing.  A round on one connection is [warm_per_round] passes over
   them plus one cold Monte Carlo n=200 job at a fresh seed. *)

open Common
module P = Serve.Protocol
module J = Obs.Json

let run_dir = ".perfbench_run"
let connections = 2
let mc_samples = 200
let warm_per_round = 15
let setups = 3

(* the kind of the cold Monte Carlo jobs, apart from the warm one *)
let cold = "mc cold"

(* --- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; socket : string; mutable alive : bool }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ -> Unix.close fd; None

let spawn ~losac k =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  let socket = Printf.sprintf "%s/losac-%d-%d.sock" run_dir (Unix.getpid ()) k in
  if Sys.file_exists socket then Sys.remove socket;
  (* the daemon's banner goes to stderr: stdout carries only results *)
  let pid =
    Unix.create_process losac
      [| losac; "serve"; "--executors"; "2"; "--socket"; socket |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  { pid; socket; alive = true }

let stop d =
  if d.alive then begin
    d.alive <- false;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid);
    if Sys.file_exists d.socket then Sys.remove d.socket
  end

(* --- a client connection ----------------------------------------------- *)

type reply = {
  resp : P.response;
  rt_s : float;        (** client-side round trip, raw *)
  bytes : int;         (** final response frame *)
  stats : J.t option;  (** telemetry event body, if requested *)
}

let call fd req =
  let t0 = Harness.now () in
  Serve.Frame.write fd (J.to_string (P.request_to_json req));
  let stats = ref None in
  let rec loop () =
    match Serve.Frame.read fd with
    | None -> failwith "perfbench: daemon closed the connection"
    | Some frame ->
      (match Result.bind (J.parse frame) P.message_of_json with
       | Ok (P.Event (P.Telemetry { body; _ })) -> stats := Some body; loop ()
       | Ok (P.Event _) -> loop ()
       | Ok (P.Final resp) ->
         { resp; rt_s = Harness.now () -. t0; bytes = String.length frame;
           stats = !stats }
       | Error msg -> failwith ("perfbench: bad frame: " ^ msg))
  in
  loop ()

let rec wait_ready path deadline =
  match connect path with
  | Some fd -> fd
  | None ->
    if Harness.now () > deadline then failwith "perfbench: daemon did not start";
    Unix.sleepf 0.005;
    wait_ready path deadline

(* --- requests ---------------------------------------------------------- *)

(* The warm set: every paper case plus a seeded case-4 spec, Monte Carlo
   n=200 at a seed taken from the run's, the corner sweep, a sizing and
   an optimization at the CLI defaults.  Ids index the template, so a repeat is the same
   request and its canonical response must be the same bytes. *)
let templates ~seed =
  let st = Inputs.rng ~seed ~tag:4 ~round:0 in
  let synth = List.map (fun c -> (c, Comdiac.Spec.paper_ota)) Core.Flow.all_cases in
  let drawn =
    List.init 1 (fun _ ->
      let g, c = Inputs.draw st (Inputs.lattice Core.Flow.Case4) in
      (Core.Flow.Case4, Inputs.spec ~gbw_mhz:g ~cl_pf:c))
  in
  Array.of_list
    (( P.Optimize { starts = 6; budget = 480; strategy = "nm"; lut = true },
       Comdiac.Spec.paper_ota )
     :: List.map (fun (case, spec) -> (P.Synth { case }, spec)) (synth @ drawn)
     @ [ (P.Mc { n = mc_samples; seed = Inputs.op_seed ~seed ~op:0 },
          Comdiac.Spec.paper_ota);
         (P.Corners, Comdiac.Spec.paper_ota);
         (P.Size { topology = "folded-cascode" }, Comdiac.Spec.paper_ota) ])

let request ~telemetry id (w, spec) = P.request ~id ~spec ~jobs:1 ~telemetry w

(* Cold Monte Carlo request number [n]: a fresh seed, an id of its own. *)
let mc_request ~seed ~telemetry n =
  P.request ~id:(1000 + n) ~jobs:1 ~telemetry
    (P.Mc { n = mc_samples; seed = Inputs.op_seed ~seed ~op:(n + 1) })

(* --- set-up ------------------------------------------------------------ *)

(* Spawn, first answered ping, and priming: the connections take the
   templates in order, each the next one not yet taken.  Returns the
   daemon, its open connections and the primed canonical responses. *)
let setup ~losac ~seed k =
  let d = spawn ~losac k in
  let first = wait_ready d.socket (Harness.now () +. 60.0) in
  let ping = call first (P.request ~id:0 P.Ping) in
  Harness.check "serve: ping answered" (ping.resp.P.status = P.Done);
  let fds = first :: List.init (connections - 1) (fun _ -> wait_ready d.socket 0.0) in
  let tpl = templates ~seed in
  let primed = Array.make (Array.length tpl) "" in
  let next = Atomic.make 0 in
  let rec prime fd =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length tpl then begin
      let r = call fd (request ~telemetry:false i tpl.(i)) in
      Harness.check "serve: primed job done" (r.resp.P.status = P.Done);
      primed.(i) <- P.canonical r.resp;
      prime fd
    end
  in
  let threads = List.map (fun fd -> Thread.create prime fd) fds in
  List.iter Thread.join threads;
  (d, fds, primed)

(* --- the timed phase --------------------------------------------------- *)

type job = { kind : string; rep : reply; traced : bool }

let workload_of (w, _) = P.workload_name w

let meta j k =
  match List.assoc_opt k j.rep.resp.P.meta with Some (J.Num v) -> v | _ -> 0.0

(* Hits and misses a telemetry body reports, summed over [caches]. *)
let cache_counts body caches =
  let num k o = Option.value ~default:0.0 (Option.bind (J.member k o) J.to_float) in
  match Option.bind (J.member "caches" body) J.to_list with
  | None -> (0.0, 0.0)
  | Some l ->
    List.fold_left
      (fun (h, m) c ->
        match Option.bind (J.member "name" c) J.to_str with
        | Some n when caches n -> (h +. num "hits" c, m +. num "misses" c)
        | _ -> (h, m))
      (0.0, 0.0) l

(* Memo hit ratio over the traced jobs, from the daemon's cumulative
   counters in the first and last telemetry body. *)
let hit_ratio bodies caches =
  match bodies with
  | [] -> 0.0
  | _ ->
    let counts = List.map (fun b -> cache_counts b caches) bodies in
    let total (h, m) = h +. m in
    let lo = List.fold_left (fun a c -> if total c < total a then c else a) (List.hd counts) counts in
    let hi = List.fold_left (fun a c -> if total c > total a then c else a) (List.hd counts) counts in
    let dh = fst hi -. fst lo and dm = snd hi -. snd lo in
    if dh +. dm <= 0.0 then 0.0 else dh /. (dh +. dm)

(* Generation-mode CAIRO time per warm synth job: the layout call a warm
   served synth repeats, timed in this process on the primed designs. *)
let generation_s tpl =
  let times =
    List.filter_map
      (fun (w, spec) ->
        match w with
        | P.Synth { case } ->
          let r = Core.Flow.run ~ctx:(Core.Ctx.make ~jobs:1 proc) ~kind ~spec case in
          let _, st =
            Harness.stretch (fun () ->
              Core.Layout_bridge.call_layout ~mode:Cairo_layout.Plan.Generation
                proc r.Core.Flow.design Core.Layout_bridge.default_options)
          in
          Some st.Harness.raw_s
        | _ -> None)
      (Array.to_list tpl)
  in
  Harness.sum times /. float_of_int (List.length times)

(* The served optimize job, repeated warm in this process: the daemon
   answers it through the same [Opt.Search.run], whose result splits the
   job into search and simulator verification. *)
let optimize_warm () =
  let run () =
    Opt.Search.run ~ctx:(Core.Ctx.make ~jobs:1 proc) ~kind
      ~spec:Comdiac.Spec.paper_ota ()
  in
  ignore (run ());
  fst (Harness.stretch run)

let report_trace ~tpl ~jobs ~wall ~ping ~lut_build_s ~attempted ~failed =
  let traced = List.filter (fun j -> j.traced) jobs in
  let untraced = List.filter (fun j -> not j.traced) jobs in
  let acc = Layers.create () in
  let row = Layers.row acc in
  let gen = generation_s tpl in
  let exec_s j = meta j "elapsed_s" in
  List.iter
    (fun j ->
      let exec = exec_s j in
      let wait = meta j "queue_wait_s" in
      let transport = j.rep.rt_s -. exec -. wait in
      Layers.add acc "serve.exec_s" exec;
      Layers.add acc "serve.queue_wait_s" wait;
      Layers.add acc "serve.transport_s" transport;
      Layers.add acc "serve.response_bytes" (float_of_int j.rep.bytes);
      if j.kind = "synth" then begin
        row "cairo_layout.generation (in serve.exec synth)" (Float.min gen exec);
        row "serve.exec synth (rest)" (exec -. Float.min gen exec)
      end
      else row ("serve.exec " ^ j.kind) exec;
      row "serve.queue_wait" wait;
      row "serve.transport" transport)
    traced;
  (* metrics of one job kind are means over the jobs of that kind *)
  let mean_over kind f =
    match List.filter (fun j -> j.kind = kind) traced with
    | [] -> 0.0
    | js -> Harness.sum (List.map f js) /. float_of_int (List.length js)
  in
  Layers.set acc "comdiac.mc_s" (mean_over cold exec_s);
  Layers.set acc "comdiac.corners_s" (mean_over "corners" exec_s);
  Layers.set acc "cairo.generation_s" (mean_over "synth" (fun _ -> gen));
  let o = optimize_warm () in
  Layers.set acc "opt.search_s" o.Opt.Search.elapsed_search_s;
  Layers.set acc "opt.verify_s" o.Opt.Search.elapsed_verify_s;
  Layers.set acc "opt.points_per_s" (Opt.Search.points_per_second o);
  Layers.set acc "opt.evals_coarse" (float_of_int o.Opt.Search.evals_coarse);
  Layers.set acc "opt.evals_polish" (float_of_int o.Opt.Search.evals_polish);
  Layers.set acc "opt.evals_sim" (float_of_int o.Opt.Search.evals_sim);
  Layers.set acc "device.lut_build_s" lut_build_s;
  Layers.set acc "serve.ping_s" ping;
  Layers.set acc "serve.warm_synth_s"
    (Harness.median
       (List.filter_map
          (fun j -> if j.kind = "synth" then Some j.rep.rt_s else None)
          untraced));
  Layers.set acc "serve.executor_busy_frac"
    (Harness.sum (List.map exec_s jobs) /. (2.0 *. wall));
  let bodies = List.filter_map (fun j -> j.rep.stats) traced in
  Layers.set acc "cache.hit_ratio" (hit_ratio bodies (fun _ -> true));
  Layers.set acc "cache.device_eval_hit_ratio"
    (hit_ratio bodies (fun n -> n = "device.eval"));
  acc.Layers.ops <- List.length traced;
  acc.Layers.traced <- List.map (fun j -> j.rep.rt_s) traced;
  acc.Layers.untraced <- List.map (fun j -> j.rep.rt_s) untraced;
  Layers.finish acc ~workload:"serve" ~attempted ~failed

let run ~losac ~seed ~seconds ~trace =
  (* the LUT grids the daemon builds while it primes the optimize job,
     timed here first, before anything in this process builds them *)
  let lut_build_s =
    if trace then (snd (Harness.stretch W_optimize.build_luts)).Harness.raw_s
    else 0.0
  in
  (* set up [setups] times, each in a fresh daemon; the last one serves
     the timed phase.  The daemon's peak resident set is read after this
     fixed work: under traffic it keeps rising with the cold jobs served
     (171-180 MB after priming, 222-236 MB after a 1-s run, 317-361 MB
     after a 25-s run), so an end-of-run reading depends on the run's
     length. *)
  let times = ref [] and rss = ref [] in
  let rec set_up k =
    let (d, fds, primed), st = Harness.stretch (fun () -> setup ~losac ~seed k) in
    times := st.Harness.raw_s :: !times;
    rss := Harness.peak_rss_mb ~pid:d.pid () :: !rss;
    if k + 1 < setups then begin
      List.iter Unix.close fds;
      stop d;
      set_up (k + 1)
    end
    else (d, fds, primed)
  in
  let d, fds, primed = set_up 0 in
  setup_s := Harness.median !times;
  Fun.protect ~finally:(fun () -> stop d)
  @@ fun () ->
  let tpl = templates ~seed in
  (* one round on one connection: [warm_per_round] passes over the warm
     set, then cold Monte Carlo job number [n] *)
  let round ~traced n =
    List.concat
      (List.init warm_per_round (fun _ ->
         Array.to_list
           (Array.mapi (fun i t -> (workload_of t, request ~telemetry:traced i t)) tpl)))
    @ [ (cold, mc_request ~seed ~telemetry:traced n) ]
  in
  (* the closed loop: each connection runs whole rounds until the time is
     up; a traced run alternates untraced and traced rounds *)
  let mc_next = Atomic.make 0 in
  let deadline = Harness.now () +. seconds in
  let client fd =
    let out = ref [] and r = ref 0 in
    while !r = 0 || Harness.now () < deadline do
      let traced = trace && !r mod 2 = 1 in
      List.iter
        (fun (k, req) -> out := (k, req, call fd req, traced) :: !out)
        (round ~traced (Atomic.fetch_and_add mc_next 1));
      incr r
    done;
    !out
  in
  let results, st =
    Harness.stretch ~cpu:(fun () -> Harness.pid_cpu_s d.pid) (fun () ->
      let out = Array.make connections [] in
      let threads =
        List.mapi (fun c fd -> Thread.create (fun () -> out.(c) <- client fd) ()) fds
      in
      List.iter Thread.join threads;
      List.concat (Array.to_list out))
  in
  let attempted = List.length results and failed = ref 0 in
  let mc_done = ref [] in
  let jobs =
    List.map
      (fun (k, req, rep, traced) ->
        if rep.resp.P.status <> P.Done then begin
          incr failed;
          Harness.check ("serve: " ^ k ^ " job done") false
        end
        else if k = cold then mc_done := (req, P.canonical rep.resp) :: !mc_done
        else
          Harness.check ("serve: warm " ^ k ^ " repeat equals the primed response")
            (P.canonical rep.resp = primed.(req.P.id));
        { kind = k; rep; traced })
      results
  in
  let rss = Harness.median !rss in
  (* the bare round trip: median of 200 pings on an idle daemon *)
  let ping =
    if not trace then 0.0
    else
      Harness.median
        (List.init 200 (fun _ -> (call (List.hd fds) (P.request ~id:0 P.Ping)).rt_s))
  in
  List.iter Unix.close fds;
  stop d;
  (* every distinct payload against the same request run in this process,
     two at a time *)
  let expected =
    Array.to_list
      (Array.mapi (fun i t -> (request ~telemetry:false i t, primed.(i))) tpl)
    @ List.map (fun (req, canon) -> ({ req with P.telemetry = false }, canon)) !mc_done
  in
  List.iter2
    (fun ((req : P.request), canon) r ->
      Harness.check
        (Printf.sprintf "serve: %s job %d equals Serve.Api.execute"
           (P.workload_name req.P.workload) req.P.id)
        (P.canonical r = canon))
    expected
    (Par.Pool.map ~jobs:2 ~cost:Par.Pool.Expensive
       (fun (req, _) -> Serve.Api.execute req) expected);
  if not trace then
    Harness.print_result ~attempted ~failed:!failed
      (end_to_end
         ~lat:
           (List.filter_map
              (fun j -> if j.rep.resp.P.status = P.Done then Some j.rep.rt_s else None)
              jobs)
         ~busy:st.Harness.raw_s ~cpu:st.Harness.cpu_s ~attempted ~rss)
  else
    report_trace ~tpl ~jobs ~wall:st.Harness.raw_s ~ping ~lut_build_s ~attempted
      ~failed:!failed
