(* A work-stealing pool of OCaml 5 domains.

   Design notes:

   - Every domain that touches the pool (worker or caller) owns a
     Chase–Lev deque of [slice]s ({!Deque}).  A batch is submitted by
     pushing one contiguous slice of the chunk space per participant
     into the *submitting* domain's deque — O(participants) enqueues,
     not O(chunks) — and poking the workers it wants.  Everybody pops
     locally; an empty deque sends a domain stealing from randomly
     ordered victims.  Popping a multi-chunk slice splits it: the tail
     goes back to the popper's deque (stealable) and only the head
     chunk runs, so load balances at chunk granularity with no global
     queue and no mutex on the hot path.

   - Determinism: chunk boundaries are a pure function of
     [(n, jobs, chunk_size)] and results are reassembled by chunk
     index, so the schedule (stealing included) can never reorder
     results.  [map_reduce] always uses exactly [min jobs n] chunks so
     its reduction sequence depends only on [(n, jobs)].

   - Fast path: [jobs <= 1], singleton inputs, and cost-hinted calls
     whose estimated total falls under {!seq_cutoff_us} run inline —
     no slices, no atomics, no accounts.  [with_pool_forced] disables
     this so benches can measure the honest jobs=1 pool overhead.

   - Adaptive chunking: chunk size targets ~{!target_chunk_us} of work
     per chunk using the caller's [?cost] class prior, refined by
     always-on per-class histograms of observed per-item run time once
     enough samples exist.  The *inline* cutoff deliberately uses only
     the static prior — history-dependent inlining would make telemetry
     and accounting nondeterministic across test orderings.

   - The submitting domain helps: it drains its own deque, then steals,
     and only blocks on the batch condition after several failed steal
     sweeps.  Correctness never depends on workers existing, and nested
     parallel calls from inside a chunk are deadlock-free: every waiter
     drains its own deque first, and a slice only ever lives in a deque
     whose owner will drain it (workers loop forever; callers drive
     until their batch completes, which cannot happen while their own
     deque still holds a slice of it).

   - Workers are spawned once and kept warm: an idle worker spins
     through a few steal sweeps ([Domain.cpu_relax] between them) and
     then blocks on its own condition variable until poked — no
     broadcast herd, no busy churn.  Spawn-to-ready warm-up time is
     recorded in its account.

   - A chunk that raises does not wedge anything: the exception is
     recorded, the batch runs to completion, and the first recorded
     exception is re-raised on the submitting domain.

   - Queue-wait accounting stamps [sl_push_us] at every actual deque
     push — submission *and* split re-push — so a task's
     [par.queue_wait_us] measures time spent runnable-but-not-running,
     not time since the batch was built. *)

(* --- tunables and test hooks ------------------------------------------ *)

type cost = Cheap | Moderate | Expensive | Item_us of float

(* static per-item priors, µs; the inline cutoff uses only these *)
let prior_us = function
  | Cheap -> 100.
  | Moderate -> 10_000.
  | Expensive -> 250_000.
  | Item_us u -> Float.max 0.01 u

let default_prior_us = 1_000.

(* target work per chunk for the adaptive planner, µs *)
let target_chunk_us = 2_000.

let seq_cutoff_us = Atomic.make 200.
let set_seq_cutoff_us v = Atomic.set seq_cutoff_us (Float.max 0. v)

let pool_forced = Atomic.make false

let stealing = Atomic.make true
let set_stealing b = Atomic.set stealing b

let stall_hook : (int -> unit) option Atomic.t = Atomic.make None
let set_stall_hook h = Atomic.set stall_hook h

(* --- batches and slices ----------------------------------------------- *)

type batch = {
  bt_body : int -> unit; (* run chunk [ci]; may raise *)
  bt_items : int -> int; (* item count of chunk [ci], for cost feedback *)
  bt_cost : int; (* cost-class histogram index, -1 for none *)
  bt_fluids : Obs.Fluid.snapshot;
  (* the submitter's context-local bindings (cache/telemetry
     switches), re-installed around every chunk so dynamic scope follows
     the work onto whichever domain runs it — worker, thief or helping
     caller.  Captured once per batch. *)
  bt_mutex : Mutex.t;
  bt_done : Condition.t;
  mutable bt_remaining : int;
  mutable bt_failed : (exn * Printexc.raw_backtrace) option;
}

(* a contiguous run [sl_lo, sl_hi) of chunk indices; immutable — a split
   allocates a fresh slice stamped with its own push time *)
type slice = {
  sl_batch : batch;
  sl_lo : int;
  sl_hi : int;
  sl_push_us : float;
}

(* --- per-domain accounts ---------------------------------------------- *)

(* cost-class histogram indices: Cheap 0, Moderate 1, Expensive 2,
   no-hint 3; Item_us trusts the caller and records nothing *)
let cost_classes = 4

let class_index = function
  | Cheap -> 0
  | Moderate -> 1
  | Expensive -> 2
  | Item_us _ -> -1

type account = {
  ac_domain : int;
  mutable ac_role : string; (* "worker" for pool domains, else "caller" *)
  mutable ac_tasks : int;
  (* 0: busy µs (chunk start -> finish); 1: queue-wait µs (deque push ->
     start), in a floatarray so per-chunk accounting never allocates *)
  ac_times : floatarray;
  ac_started_us : float; (* monotonic µs at this domain's first contact *)
  mutable ac_warmup_us : float; (* spawn -> ready; 0 for callers *)
  mutable ac_steals : int;
  mutable ac_steal_attempts : int;
  mutable ac_steal_spins : int;
  ac_deque : slice Deque.t;
  ac_rng : Splitmix.t; (* victim-order randomization *)
  ac_cost : Obs.Hist.t array; (* per-class observed per-item run µs *)
}

(* registry doubling as the victim set: an atomically published snapshot
   array, appended under [accounts_lock] when a domain first registers *)
let participants : account array Atomic.t = Atomic.make [||]
let accounts_lock = Mutex.create ()

let account_key =
  Domain.DLS.new_key (fun () ->
    let id = (Domain.self () :> int) in
    let ac =
      {
        ac_domain = id;
        ac_role = "caller";
        ac_tasks = 0;
        ac_times = Float.Array.make 2 0.0;
        ac_started_us = Obs.Clock.monotonic_us ();
        ac_warmup_us = 0.0;
        ac_steals = 0;
        ac_steal_attempts = 0;
        ac_steal_spins = 0;
        ac_deque = Deque.create ();
        ac_rng = Splitmix.create ~stream:id 0x5ca1ab1e;
        ac_cost = Array.init cost_classes (fun _ -> Obs.Hist.create ());
      }
    in
    Mutex.lock accounts_lock;
    Atomic.set participants (Array.append (Atomic.get participants) [| ac |]);
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
  ws_steal_attempts : int;
  ws_steal_spins : int;
  ws_warmup_us : float;
}

let worker_stats () =
  let now = Obs.Clock.monotonic_us () in
  Atomic.get participants |> Array.to_list
  |> List.map (fun ac ->
       let busy = Float.Array.get ac.ac_times 0 in
       let wait = Float.Array.get ac.ac_times 1 in
       let alive = Float.max 1e-9 (now -. ac.ac_started_us) in
       {
         ws_domain = ac.ac_domain;
         ws_role = ac.ac_role;
         ws_tasks = ac.ac_tasks;
         ws_busy_us = busy;
         ws_wait_us = wait;
         ws_alive_us = alive;
         ws_busy_frac = Float.min 1.0 (busy /. alive);
         ws_steals = ac.ac_steals;
         ws_steal_attempts = ac.ac_steal_attempts;
         ws_steal_spins = ac.ac_steal_spins;
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
  Array.iter
    (fun ac ->
      ac.ac_tasks <- 0;
      Float.Array.set ac.ac_times 0 0.0;
      Float.Array.set ac.ac_times 1 0.0;
      ac.ac_steals <- 0;
      ac.ac_steal_attempts <- 0;
      ac.ac_steal_spins <- 0;
      Array.iter Obs.Hist.clear ac.ac_cost)
    (Atomic.get participants)

let queue_depth () =
  Array.fold_left
    (fun acc ac -> acc + Deque.size ac.ac_deque)
    0 (Atomic.get participants)

(* --- pool sizing ------------------------------------------------------ *)

let jobs_from_env () =
  match Sys.getenv_opt "LOSAC_JOBS" with
  | None -> None
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> Some n
     | Some _ | None -> None)

let requested_default = ref None
let set_default_jobs n = requested_default := Some (max 1 n)

let default_jobs () =
  match !requested_default with
  | Some n -> n
  | None ->
    (match jobs_from_env () with
     | Some n -> n
     | None -> Domain.recommended_domain_count ())

(* OCaml's runtime degrades well past the core count but hard-caps the
   domain count; stay far below the cap. *)
let max_workers = 62

(* --- stealing --------------------------------------------------------- *)

(* One sweep over the victim set in randomized rotation.  Probes only
   deques that look non-empty (attempts count those probes, successful
   or lost); a sweep that yields nothing counts as one spin. *)
let try_steal me =
  if not (Atomic.get stealing) then None
  else begin
    let ps = Atomic.get participants in
    let len = Array.length ps in
    if len <= 1 then None
    else begin
      let start =
        (Int64.to_int (Splitmix.next_int64 me.ac_rng) land max_int) mod len
      in
      let rec probe i =
        if i >= len then begin
          me.ac_steal_spins <- me.ac_steal_spins + 1;
          if (Obs.Config.enabled ()) then Obs.Metrics.incr "par.steal_spins";
          None
        end
        else begin
          let v = ps.((start + i) mod len) in
          if v == me || Deque.size v.ac_deque = 0 then probe (i + 1)
          else begin
            me.ac_steal_attempts <- me.ac_steal_attempts + 1;
            if (Obs.Config.enabled ()) then Obs.Metrics.incr "par.steal_attempts";
            match Deque.steal v.ac_deque with
            | `Stolen sl ->
              me.ac_steals <- me.ac_steals + 1;
              if (Obs.Config.enabled ()) then Obs.Metrics.incr "par.steals";
              Some sl
            | `Empty | `Lost -> probe (i + 1)
          end
        end
      in
      probe 0
    end
  end

(* --- chunk execution -------------------------------------------------- *)

let instrumented ~chunk ~lo ~hi body =
  if not (Obs.Config.enabled ()) then body ()
  else begin
    Obs.Metrics.incr "par.tasks";
    Obs.Metrics.observe "par.chunk_items" (float_of_int (hi - lo));
    Obs.Trace.with_span ~cat:"par"
      ~args:
        [
          ("chunk", Obs.Trace.Int chunk);
          ("lo", Obs.Trace.Int lo);
          ("hi", Obs.Trace.Int hi);
          ("domain", Obs.Trace.Int (Domain.self () :> int));
        ]
      "par.task" body
  end

(* Run the head chunk of [sl] on this domain, first pushing the tail
   back into our own deque (freshly stamped — thieves can take it while
   the head runs). *)
let run_slice me sl =
  if sl.sl_lo + 1 < sl.sl_hi then
    Deque.push me.ac_deque
      { sl with sl_lo = sl.sl_lo + 1; sl_push_us = Obs.Clock.monotonic_us () };
  let b = sl.sl_batch in
  let ci = sl.sl_lo in
  let t0 = Obs.Clock.monotonic_us () in
  (* Run the chunk (and its per-chunk telemetry) under the submitter's
     context-local bindings; the domain's own bindings are restored
     before the batch countdown. *)
  Obs.Fluid.with_snapshot b.bt_fluids (fun () ->
      (try
         (match Atomic.get stall_hook with Some h -> h ci | None -> ());
         b.bt_body ci
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock b.bt_mutex;
         if b.bt_failed = None then b.bt_failed <- Some (e, bt);
         Mutex.unlock b.bt_mutex);
      let t1 = Obs.Clock.monotonic_us () in
      let wait = Float.max 0. (t0 -. sl.sl_push_us) in
      me.ac_tasks <- me.ac_tasks + 1;
      Float.Array.set me.ac_times 0
        (Float.Array.get me.ac_times 0 +. (t1 -. t0));
      Float.Array.set me.ac_times 1 (Float.Array.get me.ac_times 1 +. wait);
      (if b.bt_cost >= 0 then
         let items = b.bt_items ci in
         if items > 0 then
           Obs.Hist.record me.ac_cost.(b.bt_cost)
             ((t1 -. t0) /. float_of_int items));
      if (Obs.Config.enabled ()) then begin
        Obs.Metrics.observe "par.queue_wait_us" wait;
        Obs.Metrics.observe "par.task_run_us" (t1 -. t0)
      end);
  Mutex.lock b.bt_mutex;
  b.bt_remaining <- b.bt_remaining - 1;
  if b.bt_remaining = 0 then Condition.broadcast b.bt_done;
  Mutex.unlock b.bt_mutex

(* --- workers ---------------------------------------------------------- *)

type worker = {
  wk_mutex : Mutex.t;
  wk_cond : Condition.t;
  wk_poke : bool Atomic.t;
  wk_stop : bool Atomic.t;
  wk_spawned_us : float;
  mutable wk_domain : unit Domain.t option;
}

let workers : worker list ref = ref []
let pool_lock = Mutex.create ()
let shutdown_registered = ref false

(* steal sweeps an idle worker burns (cpu_relax between them) before
   blocking on its condition variable *)
let idle_spins = 4

let worker_loop wk =
  let me = my_account () in
  me.ac_role <- "worker";
  me.ac_warmup_us <- Obs.Clock.monotonic_us () -. wk.wk_spawned_us;
  let misses = ref 0 in
  while not (Atomic.get wk.wk_stop) do
    let ran =
      match Deque.pop me.ac_deque with
      | Some sl ->
        run_slice me sl;
        true
      | None ->
        (match try_steal me with
         | Some sl ->
           run_slice me sl;
           true
         | None -> false)
    in
    if ran then misses := 0
    else begin
      incr misses;
      if !misses < idle_spins then Domain.cpu_relax ()
      else begin
        misses := 0;
        Mutex.lock wk.wk_mutex;
        while not (Atomic.get wk.wk_poke || Atomic.get wk.wk_stop) do
          Condition.wait wk.wk_cond wk.wk_mutex
        done;
        Atomic.set wk.wk_poke false;
        Mutex.unlock wk.wk_mutex
      end
    end
  done

let shutdown () =
  Mutex.lock pool_lock;
  let ws = !workers in
  workers := [];
  Mutex.unlock pool_lock;
  List.iter
    (fun wk ->
      Mutex.lock wk.wk_mutex;
      Atomic.set wk.wk_stop true;
      Condition.signal wk.wk_cond;
      Mutex.unlock wk.wk_mutex)
    ws;
  List.iter
    (fun wk ->
      match wk.wk_domain with
      | Some d -> (try Domain.join d with _ -> ())
      | None -> ())
    ws

(* Grow the pool to at least [min target max_workers] workers.  Spawn
   failure is graceful: the caller-helps execution model picks up the
   slack with whatever workers exist. *)
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
         let wk =
           {
             wk_mutex = Mutex.create ();
             wk_cond = Condition.create ();
             wk_poke = Atomic.make false;
             wk_stop = Atomic.make false;
             wk_spawned_us = Obs.Clock.monotonic_us ();
             wk_domain = None;
           }
         in
         wk.wk_domain <- Some (Domain.spawn (fun () -> worker_loop wk));
         workers := wk :: !workers
       done
     with _ -> ());
    Mutex.unlock pool_lock
  end

let num_workers () = List.length !workers

let poke_workers k =
  if k > 0 then begin
    let rec go i = function
      | [] -> ()
      | wk :: rest ->
        if i < k then begin
          Mutex.lock wk.wk_mutex;
          Atomic.set wk.wk_poke true;
          Condition.signal wk.wk_cond;
          Mutex.unlock wk.wk_mutex;
          go (i + 1) rest
        end
    in
    go 0 !workers
  end

(* --- batch driving ---------------------------------------------------- *)

let batch_finished b =
  Mutex.lock b.bt_mutex;
  let d = b.bt_remaining = 0 in
  Mutex.unlock b.bt_mutex;
  d

let wait_done b =
  Mutex.lock b.bt_mutex;
  while b.bt_remaining > 0 do
    Condition.wait b.bt_done b.bt_mutex
  done;
  Mutex.unlock b.bt_mutex

(* failed steal sweeps the submitter tolerates before blocking *)
let caller_spins = 8

(* contiguous chunk [i] of [0..n-1] split into [chunks] parts: sizes
   differ by at most one, boundaries depend only on (n, chunks) *)
let chunk_bounds ~n ~chunks i =
  let base = n / chunks and extra = n mod chunks in
  let lo = (i * base) + min i extra in
  let hi = lo + base + if i < extra then 1 else 0 in
  (lo, hi)

(* Submit [chunks] chunks as [min jobs chunks] slices in our own deque,
   poke workers, help until the batch completes, re-raise the first
   recorded exception. *)
let run_batch ~jobs ~chunks ~cost ~items body =
  let me = my_account () in
  let b =
    {
      bt_body = body;
      bt_items = items;
      bt_cost = (match cost with Some c -> class_index c | None -> 3);
      bt_fluids = Obs.Fluid.capture ();
      bt_mutex = Mutex.create ();
      bt_done = Condition.create ();
      bt_remaining = chunks;
      bt_failed = None;
    }
  in
  let p = max 1 (min jobs chunks) in
  ensure_workers (p - 1);
  let depth0 = Deque.size me.ac_deque in
  for k = p - 1 downto 0 do
    let lo, hi = chunk_bounds ~n:chunks ~chunks:p k in
    if lo < hi then
      Deque.push me.ac_deque
        {
          sl_batch = b;
          sl_lo = lo;
          sl_hi = hi;
          sl_push_us = Obs.Clock.monotonic_us ();
        }
  done;
  if (Obs.Config.enabled ()) then begin
    Obs.Metrics.observe "par.queue_depth" (float_of_int (depth0 + p));
    Obs.Metrics.observe "par.batch_tasks" (float_of_int chunks)
  end;
  poke_workers (p - 1);
  let rec drive misses =
    match Deque.pop me.ac_deque with
    | Some sl ->
      run_slice me sl;
      drive 0
    | None ->
      if not (batch_finished b) then begin
        match try_steal me with
        | Some sl ->
          run_slice me sl;
          drive 0
        | None ->
          if misses < caller_spins then begin
            Domain.cpu_relax ();
            drive (misses + 1)
          end
          (* else: everything left is running elsewhere (or parked in a
             busy worker's deque its owner will drain) — fall through
             and block in [wait_done] *)
      end
  in
  drive 0;
  wait_done b;
  match b.bt_failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* --- adaptive chunk planning ------------------------------------------ *)

(* merged-across-domains p50 of observed per-item run µs for a class,
   once at least [min_samples] observations exist *)
let min_samples = 32

let observed_p50 idx =
  let ps = Atomic.get participants in
  let merged = Obs.Hist.create () in
  Array.iter
    (fun ac -> Obs.Hist.merge_into ~src:ac.ac_cost.(idx) ~dst:merged)
    ps;
  if Obs.Hist.count merged >= min_samples then begin
    let p = Obs.Hist.quantile merged 0.5 in
    if Float.is_finite p && p > 0. then Some p else None
  end
  else None

let est_item_us cost =
  match cost with
  | Some (Item_us u) -> Float.max 0.01 u
  | Some c ->
    (match observed_p50 (class_index c) with
     | Some p -> p
     | None -> prior_us c)
  | None ->
    (match observed_p50 3 with Some p -> p | None -> default_prior_us)

(* Chunk size: ~[target_chunk_us] of estimated work per chunk, capped so
   every worker gets a few chunks to balance with, floored so the chunk
   count never explodes past 256.  An explicit [?chunk] always wins. *)
let plan_chunk ~n ~jobs ~chunk ~cost =
  match chunk with
  | Some c -> max 1 c
  | None ->
    let est = est_item_us cost in
    let by_cost = max 1 (int_of_float (Float.round (target_chunk_us /. est))) in
    let balance_cap = max 1 (n / (4 * jobs)) in
    let queue_floor = max 1 ((n + 255) / 256) in
    max queue_floor (min by_cost balance_cap)

(* Inline iff nothing to parallelize or the statically estimated total
   is under the sequential cutoff.  Deliberately prior-only (see the
   design notes): history-driven inlining would be nondeterministic. *)
let inline_path ~jobs ~n ~cost =
  (not (Atomic.get pool_forced))
  && (jobs <= 1 || n <= 1
     ||
     match cost with
     | Some c -> prior_us c *. float_of_int n < Atomic.get seq_cutoff_us
     | None -> false)

let with_pool_forced f =
  let prev = Atomic.exchange pool_forced true in
  Fun.protect ~finally:(fun () -> Atomic.set pool_forced prev) f

(* --- combinators ------------------------------------------------------ *)

let resolve_jobs jobs =
  max 1 (match jobs with Some j -> j | None -> default_jobs ())

let map_array ?jobs ?chunk ?cost f xs =
  let n = Array.length xs in
  let jobs = min (resolve_jobs jobs) (max 1 n) in
  if inline_path ~jobs ~n ~cost then Array.map f xs
  else begin
    let s = plan_chunk ~n ~jobs ~chunk ~cost in
    let chunks = (n + s - 1) / s in
    let out = Array.make chunks [||] in
    let bounds ci = (ci * s, min n ((ci * s) + s)) in
    run_batch ~jobs ~chunks ~cost
      ~items:(fun ci ->
        let lo, hi = bounds ci in
        hi - lo)
      (fun ci ->
        let lo, hi = bounds ci in
        instrumented ~chunk:ci ~lo ~hi (fun () ->
          out.(ci) <- Array.init (hi - lo) (fun k -> f xs.(lo + k))));
    Array.concat (Array.to_list out)
  end

let map ?jobs ?chunk ?cost f xs =
  Array.to_list (map_array ?jobs ?chunk ?cost f (Array.of_list xs))

let map_reduce ?jobs ?cost ~map:fm ~reduce init xs =
  match xs with
  | [] -> init
  | _ ->
    let xs = Array.of_list xs in
    let n = Array.length xs in
    let jobs = min (resolve_jobs jobs) n in
    if inline_path ~jobs ~n ~cost then
      Array.fold_left (fun acc x -> reduce acc (fm x)) init xs
    else begin
      (* exactly [jobs] chunks, always: the chunk-ordered reduction
         sequence must depend only on (n, jobs), never on adaptive
         sizing history *)
      let chunks = jobs in
      let out = Array.make chunks None in
      run_batch ~jobs ~chunks ~cost
        ~items:(fun ci ->
          let lo, hi = chunk_bounds ~n ~chunks ci in
          hi - lo)
        (fun ci ->
          let lo, hi = chunk_bounds ~n ~chunks ci in
          instrumented ~chunk:ci ~lo ~hi (fun () ->
            let acc = ref (fm xs.(lo)) in
            for i = lo + 1 to hi - 1 do
              acc := reduce !acc (fm xs.(i))
            done;
            out.(ci) <- Some !acc));
      Array.fold_left (fun acc r -> reduce acc (Option.get r)) init out
    end

let parallel_for ?jobs ?chunk ?cost n body =
  if n > 0 then begin
    let jobs = min (resolve_jobs jobs) n in
    if inline_path ~jobs ~n ~cost then
      for i = 0 to n - 1 do
        body i
      done
    else begin
      let s = plan_chunk ~n ~jobs ~chunk ~cost in
      let chunks = (n + s - 1) / s in
      run_batch ~jobs ~chunks ~cost
        ~items:(fun ci -> min n ((ci * s) + s) - (ci * s))
        (fun ci ->
          let lo = ci * s in
          let hi = min n (lo + s) in
          instrumented ~chunk:ci ~lo ~hi (fun () ->
            for i = lo to hi - 1 do
              body i
            done))
    end
  end
