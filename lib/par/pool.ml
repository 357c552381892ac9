(* A shared-queue pool of OCaml 5 domains (see pool.mli for the model).

   A submitter only ever waits on chunks that are already running on
   another domain: it claims and runs every chunk of its own batch that
   nobody else has claimed before it blocks.  That is what keeps nested
   batches (a chunk that calls [map]) and concurrent submitters (the job
   server's executors) deadlock-free. *)

type cost = Cheap | Moderate | Expensive

let stall_hook : (int -> unit) option Atomic.t = Atomic.make None
let set_stall_hook h = Atomic.set stall_hook h

(* --- batches ------------------------------------------------------------ *)

type batch = {
  bt_body : int -> unit; (* run chunk [ci]; may raise *)
  bt_chunks : int;
  bt_next : int Atomic.t; (* next unclaimed chunk; overshoots harmlessly *)
  bt_owner : int; (* submitting domain *)
  bt_submitted_us : float;
  bt_fluids : Obs.Fluid.snapshot;
  (* the submitter's context-local bindings (cache/telemetry switches),
     re-installed around every chunk so dynamic scope follows the work
     onto whichever domain runs it.  Captured once per batch. *)
  bt_mutex : Mutex.t;
  bt_done : Condition.t;
  mutable bt_remaining : int;
  mutable bt_failed : (exn * Printexc.raw_backtrace) option;
}

(* --- per-domain accounts -------------------------------------------------- *)

type account = {
  ac_domain : int;
  mutable ac_role : string; (* "worker" for pool domains, else "caller" *)
  mutable ac_tasks : int;
  (* 0: busy µs (chunk start -> finish); 1: queue-wait µs (batch
     submission -> chunk start), in a floatarray so per-chunk accounting
     never allocates *)
  ac_times : floatarray;
  ac_started_us : float; (* monotonic µs at this domain's first contact *)
  mutable ac_warmup_us : float; (* spawn -> ready; 0 for callers *)
  mutable ac_steals : int; (* chunks run for another domain's batch *)
}

let participants : account list Atomic.t = Atomic.make []
let accounts_lock = Mutex.create ()

let account_key =
  Domain.DLS.new_key (fun () ->
    let ac =
      {
        ac_domain = (Domain.self () :> int);
        ac_role = "caller";
        ac_tasks = 0;
        ac_times = Float.Array.make 2 0.0;
        ac_started_us = Obs.Clock.monotonic_us ();
        ac_warmup_us = 0.0;
        ac_steals = 0;
      }
    in
    Mutex.lock accounts_lock;
    Atomic.set participants (ac :: Atomic.get participants);
    Mutex.unlock accounts_lock;
    ac)

let my_account () = Domain.DLS.get account_key

(* Label the calling domain's participant row (e.g. the job server tags
   its executor domains "exec-0".."exec-N"), registering the account on
   first contact so the row exists before any batch runs.  Worker
   domains overwrite their own role to "worker" at startup. *)
let set_role name = (my_account ()).ac_role <- name

type worker_stat = {
  ws_domain : int;
  ws_role : string;
  ws_tasks : int;
  ws_busy_us : float;
  ws_wait_us : float;
  ws_alive_us : float;
  ws_busy_frac : float;
  ws_steals : int;
  ws_warmup_us : float;
}

let worker_stats () =
  let now = Obs.Clock.monotonic_us () in
  Atomic.get participants
  |> List.map (fun ac ->
       let busy = Float.Array.get ac.ac_times 0 in
       let alive = Float.max 1e-9 (now -. ac.ac_started_us) in
       {
         ws_domain = ac.ac_domain;
         ws_role = ac.ac_role;
         ws_tasks = ac.ac_tasks;
         ws_busy_us = busy;
         ws_wait_us = Float.Array.get ac.ac_times 1;
         ws_alive_us = alive;
         ws_busy_frac = Float.min 1.0 (busy /. alive);
         ws_steals = ac.ac_steals;
         ws_warmup_us = ac.ac_warmup_us;
       })
  |> List.sort (fun a b -> compare a.ws_domain b.ws_domain)

let export_metrics () =
  List.iter
    (fun ws ->
      let base = Printf.sprintf "par.%s.%d" ws.ws_role ws.ws_domain in
      Obs.Metrics.set (base ^ ".busy_frac") ws.ws_busy_frac;
      Obs.Metrics.set (base ^ ".tasks") (float_of_int ws.ws_tasks);
      Obs.Metrics.set (base ^ ".steals") (float_of_int ws.ws_steals))
    (worker_stats ())

let reset_stats () =
  List.iter
    (fun ac ->
      ac.ac_tasks <- 0;
      Float.Array.fill ac.ac_times 0 2 0.0;
      ac.ac_steals <- 0)
    (Atomic.get participants)

(* --- pool sizing ---------------------------------------------------------- *)

let requested_default = ref None
let set_default_jobs n = requested_default := Some (max 1 n)

let default_jobs () =
  match !requested_default with
  | Some n -> n
  | None ->
    (match Option.bind (Sys.getenv_opt "LOSAC_JOBS") (fun s ->
               int_of_string_opt (String.trim s)) with
     | Some n when n >= 1 -> n
     | Some _ | None -> Domain.recommended_domain_count ())

(* OCaml's runtime degrades well past the core count but hard-caps the
   domain count; stay far below the cap. *)
let max_workers = 62

(* --- the shared queue ----------------------------------------------------- *)

let queue : batch Queue.t = Queue.create ()
let queue_lock = Mutex.create ()
let queue_cond = Condition.create ()

let queue_depth () = Queue.length queue

(* --- chunk execution ------------------------------------------------------ *)

let run_chunk me b ci =
  let t0 = Obs.Clock.monotonic_us () in
  (* Run the chunk (and its per-chunk telemetry) under the submitter's
     context-local bindings; the domain's own bindings are restored
     before the batch countdown. *)
  Obs.Fluid.with_snapshot b.bt_fluids (fun () ->
      let body () =
        (match Atomic.get stall_hook with Some h -> h ci | None -> ());
        b.bt_body ci
      in
      (try
         if not (Obs.Config.enabled ()) then body ()
         else begin
           Obs.Metrics.incr "par.tasks";
           Obs.Trace.with_span ~cat:"par"
             ~args:
               [
                 ("chunk", Obs.Trace.Int ci);
                 ("domain", Obs.Trace.Int me.ac_domain);
               ]
             "par.task" body
         end
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock b.bt_mutex;
         if b.bt_failed = None then b.bt_failed <- Some (e, bt);
         Mutex.unlock b.bt_mutex);
      let t1 = Obs.Clock.monotonic_us () in
      let wait = Float.max 0. (t0 -. b.bt_submitted_us) in
      let stolen = me.ac_domain <> b.bt_owner in
      me.ac_tasks <- me.ac_tasks + 1;
      if stolen then me.ac_steals <- me.ac_steals + 1;
      Float.Array.set me.ac_times 0
        (Float.Array.get me.ac_times 0 +. (t1 -. t0));
      Float.Array.set me.ac_times 1 (Float.Array.get me.ac_times 1 +. wait);
      if Obs.Config.enabled () then begin
        if stolen then Obs.Metrics.incr "par.steals";
        Obs.Metrics.observe "par.queue_wait_us" wait;
        Obs.Metrics.observe "par.task_run_us" (t1 -. t0)
      end);
  Mutex.lock b.bt_mutex;
  b.bt_remaining <- b.bt_remaining - 1;
  if b.bt_remaining = 0 then Condition.broadcast b.bt_done;
  Mutex.unlock b.bt_mutex

(* claim and run chunks of [b] until none is left unclaimed *)
let rec drain me b =
  let ci = Atomic.fetch_and_add b.bt_next 1 in
  if ci < b.bt_chunks then begin
    run_chunk me b ci;
    drain me b
  end

(* --- workers -------------------------------------------------------------- *)

(* each worker's stop flag and domain *)
let workers : (bool Atomic.t * unit Domain.t) list ref = ref []
let pool_lock = Mutex.create ()
let shutdown_registered = ref false

(* Under [queue_lock]: the oldest batch with unclaimed chunks, dropping
   exhausted ones from the head, or [None] once [stop] is set. *)
let rec next_batch stop =
  if Atomic.get stop then None
  else
    match Queue.peek_opt queue with
    | Some b when Atomic.get b.bt_next < b.bt_chunks -> Some b
    | Some _ ->
      ignore (Queue.pop queue);
      next_batch stop
    | None ->
      Condition.wait queue_cond queue_lock;
      next_batch stop

let worker_loop stop spawned_us =
  let me = my_account () in
  me.ac_role <- "worker";
  me.ac_warmup_us <- Obs.Clock.monotonic_us () -. spawned_us;
  let rec loop () =
    Mutex.lock queue_lock;
    let b = next_batch stop in
    Mutex.unlock queue_lock;
    match b with
    | Some b ->
      drain me b;
      loop ()
    | None -> ()
  in
  loop ()

let shutdown () =
  Mutex.lock pool_lock;
  let ws = !workers in
  workers := [];
  Mutex.unlock pool_lock;
  Mutex.lock queue_lock;
  List.iter (fun (stop, _) -> Atomic.set stop true) ws;
  Condition.broadcast queue_cond;
  Mutex.unlock queue_lock;
  List.iter (fun (_, d) -> try Domain.join d with _ -> ()) ws

(* Grow the pool to at least [min target max_workers] workers.  Spawn
   failure is graceful: the submitter drains its own batch with
   whatever workers exist. *)
let ensure_workers target =
  let target = min target max_workers in
  if List.length !workers < target then begin
    Mutex.lock pool_lock;
    if not !shutdown_registered then begin
      shutdown_registered := true;
      (* idle workers block in [Condition.wait]; join them before the
         runtime tears down *)
      at_exit shutdown
    end;
    (try
       while List.length !workers < target do
         let stop = Atomic.make false in
         let spawned_us = Obs.Clock.monotonic_us () in
         let d = Domain.spawn (fun () -> worker_loop stop spawned_us) in
         workers := (stop, d) :: !workers
       done
     with _ -> ());
    Mutex.unlock pool_lock
  end

let num_workers () = List.length !workers

(* --- batch driving -------------------------------------------------------- *)

(* Queue [chunks] chunks of [body], wake up to [jobs - 1] workers, drain
   the batch, wait for chunks still running elsewhere, re-raise the
   first recorded exception. *)
let run_batch ~jobs ~chunks body =
  let me = my_account () in
  let b =
    {
      bt_body = body;
      bt_chunks = chunks;
      bt_next = Atomic.make 0;
      bt_owner = me.ac_domain;
      bt_submitted_us = Obs.Clock.monotonic_us ();
      bt_fluids = Obs.Fluid.capture ();
      bt_mutex = Mutex.create ();
      bt_done = Condition.create ();
      bt_remaining = chunks;
      bt_failed = None;
    }
  in
  let helpers = min jobs chunks - 1 in
  ensure_workers helpers;
  Mutex.lock queue_lock;
  Queue.push b queue;
  if Obs.Config.enabled () then
    Obs.Metrics.observe "par.queue_depth" (float_of_int (Queue.length queue));
  for _ = 1 to helpers do
    Condition.signal queue_cond
  done;
  Mutex.unlock queue_lock;
  drain me b;
  Mutex.lock b.bt_mutex;
  while b.bt_remaining > 0 do
    Condition.wait b.bt_done b.bt_mutex
  done;
  Mutex.unlock b.bt_mutex;
  match b.bt_failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* --- map ------------------------------------------------------------------ *)

let chunk_size ~n ~jobs = function
  | Cheap -> max 1 (n / (8 * jobs))
  | Moderate | Expensive -> 1

let map ?jobs ?(cost = Moderate) f xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let jobs =
    min (max 1 (match jobs with Some j -> j | None -> default_jobs ())) n
  in
  if jobs <= 1 then Array.to_list (Array.map f xs)
  else begin
    let s = chunk_size ~n ~jobs cost in
    let chunks = (n + s - 1) / s in
    let out = Array.make chunks [||] in
    run_batch ~jobs ~chunks (fun ci ->
        let lo = ci * s in
        out.(ci) <- Array.init (min s (n - lo)) (fun k -> f xs.(lo + k)));
    List.concat_map Array.to_list (Array.to_list out)
  end
