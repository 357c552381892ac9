open Helpers
module MC = Comdiac.Montecarlo

let proc = Technology.Process.c06
let kind = Device.Model.Bsim_lite
let spec = Comdiac.Spec.paper_ota

(* --- pool combinators --------------------------------------------------- *)

let test_map_matches_sequential () =
  let xs = List.init 1000 (fun i -> i - 500) in
  let f x = (x * 7919) + (x mod 13) in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "map with %d jobs" jobs)
        expected
        (Par.Pool.map ~jobs f xs))
    [ 1; 2; 8 ];
  Alcotest.(check (list int)) "empty input" [] (Par.Pool.map ~jobs:4 f []);
  Alcotest.(check (list int)) "singleton" [ f 3 ] (Par.Pool.map ~jobs:8 f [ 3 ])

(* --- exception handling -------------------------------------------------- *)

exception Boom of int

let test_exception_propagation () =
  (match
     Par.Pool.map ~jobs:4
       (fun x -> if x = 17 then raise (Boom x) else x)
       (List.init 64 Fun.id)
   with
   | _ -> Alcotest.fail "expected the task exception to propagate"
   | exception Boom 17 -> ());
  (* the pool must survive a failed batch and keep serving *)
  Alcotest.(check (list int))
    "pool serves the next batch" [ 0; 2; 4; 6 ]
    (Par.Pool.map ~jobs:4 (fun x -> 2 * x) [ 0; 1; 2; 3 ])

(* --- monte carlo determinism --------------------------------------------- *)

let design =
  lazy
    (Comdiac.Folded_cascode.size ~proc ~kind ~spec
       ~parasitics:Comdiac.Parasitics.single_fold)

let test_montecarlo_schedule_independent () =
  let amp = (Lazy.force design).Comdiac.Folded_cascode.amp in
  let seq = MC.run ~seed:11 ~n:6 ~jobs:1 ~proc ~kind ~spec amp in
  let par = MC.run ~seed:11 ~n:6 ~jobs:4 ~proc ~kind ~spec amp in
  Alcotest.(check int) "same sample count"
    (List.length seq.MC.samples)
    (List.length par.MC.samples);
  (* bit-identical sample-for-sample; compare (not =) treats nan as equal *)
  Alcotest.(check bool) "samples bit-identical" true
    (compare seq.MC.samples par.MC.samples = 0);
  Alcotest.(check bool) "stats bit-identical" true
    (compare seq.MC.offset_stats par.MC.offset_stats = 0)

(* --- splitmix streams ----------------------------------------------------- *)

let test_splitmix_streams () =
  let drain st = List.init 8 (fun _ -> Par.Splitmix.float st) in
  let a = drain (Par.Splitmix.create ~stream:0 42) in
  let a' = drain (Par.Splitmix.create ~stream:0 42) in
  let b = drain (Par.Splitmix.create ~stream:1 42) in
  let c = drain (Par.Splitmix.create ~stream:0 43) in
  Alcotest.(check bool) "reproducible" true (a = a');
  Alcotest.(check bool) "streams differ" true (a <> b);
  Alcotest.(check bool) "seeds differ" true (a <> c);
  List.iter
    (fun u ->
      Alcotest.(check bool) "uniform draw in [0,1)" true (u >= 0.0 && u < 1.0))
    (a @ b @ c)

(* --- telemetry ------------------------------------------------------------ *)

let test_pool_telemetry () =
  Obs.Config.with_enabled true (fun () ->
    Obs.Trace.reset ();
    Obs.Metrics.reset ();
    let _ = Par.Pool.map ~jobs:4 (fun x -> x + 1) (List.init 32 Fun.id) in
    Alcotest.(check bool) "par.tasks counted" true
      (Obs.Metrics.counter "par.tasks" >= 1.0);
    Alcotest.(check bool) "queue depth observed" true
      (Obs.Metrics.hist_stats "par.queue_depth" <> None);
    let tasks =
      List.filter (fun s -> s.Obs.Trace.name = "par.task") (Obs.Trace.spans ())
    in
    Alcotest.(check bool) "par.task spans recorded" true (tasks <> []);
    (* per-task latency accounting: queue-wait and run-time histograms *)
    (match Obs.Metrics.hist_stats "par.task_run_us" with
     | None -> Alcotest.fail "par.task_run_us missing"
     | Some s -> Alcotest.(check bool) "one run sample per chunk" true
                   (s.Obs.Metrics.count >= 4));
    (match Obs.Metrics.hist_stats "par.queue_wait_us" with
     | None -> Alcotest.fail "par.queue_wait_us missing"
     | Some s ->
       Alcotest.(check bool) "queue wait is non-negative" true
         (s.Obs.Metrics.min >= 0.0));
    Obs.Trace.reset ();
    Obs.Metrics.reset ())

let total_tasks () =
  List.fold_left (fun acc w -> acc + w.Par.Pool.ws_tasks) 0
    (Par.Pool.worker_stats ())

let test_pool_accounting () =
  (* utilization accounts work with telemetry off — they are always on.
     Chunk size is a fixed function of (n, jobs, cost): 64 cheap items
     at 4 jobs go max 1 (64 / 32) = 2 to a chunk, 32 chunks; moderate
     items go one to a chunk. *)
  Par.Pool.reset_stats ();
  let _ =
    Par.Pool.map ~jobs:4 ~cost:Par.Pool.Cheap (fun x -> x * x)
      (List.init 64 Fun.id)
  in
  let stats = Par.Pool.worker_stats () in
  Alcotest.(check bool) "at least the calling domain accounted" true
    (stats <> []);
  Alcotest.(check int) "every cheap chunk accounted exactly once" 32
    (total_tasks ());
  List.iter
    (fun (w : Par.Pool.worker_stat) ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d role" w.Par.Pool.ws_domain)
        true
        (w.Par.Pool.ws_role = "worker" || w.Par.Pool.ws_role = "caller");
      check_in_range "busy fraction" 0.0 1.0 w.Par.Pool.ws_busy_frac;
      Alcotest.(check bool) "busy time consistent with tasks" true
        (w.Par.Pool.ws_tasks = 0 || w.Par.Pool.ws_busy_us > 0.0))
    stats;
  Par.Pool.reset_stats ();
  let _ =
    Par.Pool.map ~jobs:4 ~cost:Par.Pool.Moderate (fun x -> x + 1)
      (List.init 10 Fun.id)
  in
  Alcotest.(check int) "one moderate item per chunk" 10 (total_tasks ());
  (* sequential fast path never touches the pool or the accounts *)
  let _ = Par.Pool.map ~jobs:1 (fun x -> x + 1) (List.init 8 Fun.id) in
  Alcotest.(check int) "jobs=1 bypasses accounting" 10 (total_tasks ());
  Par.Pool.reset_stats ();
  Alcotest.(check int) "reset zeroes tasks" 0 (total_tasks ())

(* --- queue-wait accounting ------------------------------------------------ *)

(* A chunk's queue wait runs from batch submission to chunk start.  Each
   chunk records its own start, so the summed wait is bracketed: at
   most the starts' distance from the call, and about the starts'
   spread after the first chunk (no chunk can start before
   submission).  Half that spread is the lower bound, which leaves room
   for a participant descheduled between the pool's stamp and the body
   on a loaded machine; a wait stamped at a later point than submission
   reads near zero. *)
let test_queue_wait_from_submission () =
  Par.Pool.reset_stats ();
  let n = 32 in
  let starts = Array.make n 0.0 in
  let t_call = Obs.Clock.monotonic_us () in
  Par.Pool.map ~jobs:2 ~cost:Par.Pool.Moderate
    (fun i ->
      starts.(i) <- Obs.Clock.monotonic_us ();
      Unix.sleepf 0.003)
    (List.init n Fun.id)
  |> ignore;
  let waited =
    List.fold_left (fun acc w -> acc +. w.Par.Pool.ws_wait_us) 0.0
      (Par.Pool.worker_stats ())
  in
  let first = Array.fold_left Float.min Float.infinity starts in
  let sum f = Array.fold_left (fun acc t -> acc +. f t) 0.0 starts in
  let lower = sum (fun t -> t -. first) /. 2.0 in
  let upper = sum (fun t -> t -. t_call) in
  Alcotest.(check bool) "late chunks waited" true (lower > 10_000.0);
  check_in_range "summed queue wait, µs" lower upper waited;
  Par.Pool.reset_stats ()

(* --- steals ---------------------------------------------------------------- *)

(* A steal is a chunk run for another domain's batch: with stalled
   chunks, workers take part of the caller's batch, and every chunk the
   caller did not run itself is one. *)
let test_steal_stats_and_warmup () =
  Par.Pool.reset_stats ();
  let xs = List.init 8 Fun.id in
  Par.Pool.set_stall_hook (Some (fun _ -> Unix.sleepf 0.01));
  Fun.protect ~finally:(fun () -> Par.Pool.set_stall_hook None) (fun () ->
    Alcotest.(check (list int))
      "result correct under stalls"
      (List.map (fun x -> x * 3) xs)
      (Par.Pool.map ~jobs:4 ~cost:Par.Pool.Moderate (fun x -> x * 3) xs));
  let stats = Par.Pool.worker_stats () in
  let me = (Domain.self () :> int) in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 stats in
  let steals = sum (fun w -> w.Par.Pool.ws_steals) in
  let mine =
    sum (fun w -> if w.Par.Pool.ws_domain = me then w.Par.Pool.ws_tasks else 0)
  in
  Alcotest.(check bool) "stalled chunks got stolen" true (steals >= 1);
  Alcotest.(check int) "steals are the chunks the caller did not run"
    (8 - mine) steals;
  Alcotest.(check bool) "a worker domain exists" true
    (List.exists (fun w -> w.Par.Pool.ws_role = "worker") stats);
  List.iter
    (fun (w : Par.Pool.worker_stat) ->
      if w.Par.Pool.ws_role = "worker" then
        Alcotest.(check bool)
          (Printf.sprintf "domain %d warm-up recorded" w.Par.Pool.ws_domain)
          true
          (w.Par.Pool.ws_warmup_us >= 0.0))
    stats;
  Par.Pool.reset_stats ()

(* --- nested and concurrent submission -------------------------------------- *)

(* Two domains submit at once and every chunk submits again from inside
   the pool — the shape of `losac serve --executors 2` running parallel
   analyses.  A submitter that waited on chunks nobody would run would
   hang here. *)
let test_nested_concurrent () =
  Par.Pool.reset_stats ();
  let inner x = List.init 5 (fun k -> (x * 31) + k) in
  let outer base =
    Par.Pool.map ~jobs:2 ~cost:Par.Pool.Moderate
      (fun x ->
        Unix.sleepf 0.001;
        Par.Pool.map ~jobs:2 ~cost:Par.Pool.Moderate (fun y -> y * y) (inner x))
      (List.init 6 (fun i -> base + i))
  in
  let expect base =
    List.map (fun x -> List.map (fun y -> y * y) (inner x))
      (List.init 6 (fun i -> base + i))
  in
  let ds = List.map (fun base -> Domain.spawn (fun () -> outer base)) [ 0; 100 ] in
  let got = List.map Domain.join ds in
  Alcotest.(check (list (list (list int))))
    "nested outputs equal the sequential ones"
    [ expect 0; expect 100 ] got;
  (* 2 submitters x (6 outer chunks + 6 inner batches of 5 chunks) *)
  Alcotest.(check int) "every chunk accounted to exactly one domain"
    (2 * (6 + (6 * 5)))
    (total_tasks ());
  Alcotest.(check (list int))
    "the pool serves a further batch" [ 1; 2; 3 ]
    (Par.Pool.map ~jobs:2 (fun x -> x + 1) [ 0; 1; 2 ]);
  Par.Pool.reset_stats ()

(* --- qcheck: results are schedule independent ----------------------------- *)

(* map must be bit-identical to List.map at jobs ∈ {1, 2, 8} for every
   cost class, with a random class of chunks stalled to skew the
   schedule.  The mapped values are floats, compared bitwise. *)
let prop_schedule_independent =
  QCheck.Test.make ~count:12
    ~name:"map equals List.map bitwise at any jobs, cost and stall"
    QCheck.(pair (int_range 1 120) (int_range 0 999))
    (fun (n, seed) ->
      let xs = List.init n Fun.id in
      let f x = Par.Splitmix.float (Par.Splitmix.create ~stream:x seed) in
      let expected = List.map f xs in
      let stall_on = seed land 7 in
      Par.Pool.set_stall_hook
        (Some (fun ci -> if ci land 7 = stall_on then Unix.sleepf 0.002));
      Fun.protect ~finally:(fun () -> Par.Pool.set_stall_hook None)
        (fun () ->
          List.for_all
            (fun (jobs, cost) -> compare (Par.Pool.map ~jobs ~cost f xs) expected = 0)
            (List.concat_map
               (fun jobs ->
                 List.map (fun c -> (jobs, c))
                   Par.Pool.[ Cheap; Moderate; Expensive ])
               [ 1; 2; 8 ])))

let suite =
  ( "par",
    [
      case "pool map matches sequential map" test_map_matches_sequential;
      case "exceptions propagate without wedging" test_exception_propagation;
      case "monte carlo is schedule independent"
        test_montecarlo_schedule_independent;
      case "splitmix streams are independent" test_splitmix_streams;
      case "pool telemetry" test_pool_telemetry;
      case "pool utilization accounting" test_pool_accounting;
      case "queue wait measured from batch submission"
        test_queue_wait_from_submission;
      case "stealing statistics and warm-up" test_steal_stats_and_warmup;
      case "nested and concurrent submission" test_nested_concurrent;
    ]
    @ qcheck_cases [ prop_schedule_independent ] )
