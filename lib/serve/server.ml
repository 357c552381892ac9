(* The losac job daemon.

   Concurrency model: one reader thread per connection parses frames and
   performs admission control; admitted jobs go onto per-connection
   queues drained in round-robin rotation by a pool of N executor
   DOMAINS.  Executors are domains, not threads, because execution
   switches (cache/telemetry) are context-local via domain-local
   storage (Obs.Fluid) — each executor binds its current job's flags on
   its own domain, so jobs with conflicting flags overlap safely while
   the process-wide Cache.Memo registry, Device.Lut grids and the shared
   Par.Pool keep warm state flowing between them.  Round-robin admission
   gives per-client fairness: one chatty connection cannot starve
   another's single job behind its backlog.

   Cancellation: a [cancel {target}] request is handled by the reader
   thread directly (it never queues — it would otherwise wait behind the
   very job it cancels).  It sets the target job's cooperative
   cancellation token; a queued job answers [Cancelled] when an executor
   pops it, a running job aborts at its next Exec.Ctx.check_deadline
   poll (deadline-moved-to-now semantics) and its Timeout is mapped to
   [Cancelled]. *)

module J = Obs.Json
module P = Protocol

type config = {
  socket_path : string option;
  tcp : (string * int) option;
  queue_limit : int;
  max_frame : int;
  default_timeout_s : float option;
  executors : int;
}

let default_executors () = min 4 (Domain.recommended_domain_count ())

let default_config =
  {
    socket_path = None;
    tcp = None;
    queue_limit = 64;
    max_frame = Frame.max_frame_default;
    default_timeout_s = None;
    executors = default_executors ();
  }

type job = {
  req : P.request;
  jconn : conn;
  submitted_s : float;
  cancel : bool Atomic.t;
}

and conn = {
  fd : Unix.file_descr;
  wlock : Mutex.t;  (* reader (acks, errors) and executors share the fd *)
  alive : bool Atomic.t;
  pending : int Atomic.t;  (* jobs admitted but not yet answered *)
  closed : bool Atomic.t;  (* close-once latch for [fd] *)
  jobs : job Queue.t;  (* this connection's admitted jobs; server lock *)
}

(* Closing is deferred until no queued job references the connection:
   closing early would let the kernel reuse the descriptor number while
   an executor still holds it, sending a response to a stranger. *)
let maybe_close conn =
  if
    (not (Atomic.get conn.alive))
    && Atomic.get conn.pending = 0
    && Atomic.compare_and_set conn.closed false true
  then try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* Death of a connection: peers see EOF immediately (shutdown), the
   descriptor itself is reclaimed once the last pending job answered. *)
let kill conn =
  Atomic.set conn.alive false;
  (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  maybe_close conn

type exec_stat = { ex_id : int; ex_jobs : int; ex_busy_s : float }

type t = {
  config : config;
  n_exec : int;
  shutdown : bool Atomic.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  (* Round-robin rotation: connections with at least one queued job, in
     service order.  An executor takes the head connection's oldest job
     and rotates the connection to the tail if it still has work.
     [queued] is the global depth bound ([queue_limit] applies to the
     sum, preserving the overload contract of the single-queue era). *)
  mutable rr : conn list;
  mutable queued : int;
  (* (rid, conn, cancel token) of jobs currently inside Api.execute,
     so a cancel request can reach a running job.  Guarded by [lock]. *)
  mutable running : (int * conn * bool Atomic.t) list;
  mutable listeners : Unix.file_descr list;
  mutable threads : Thread.t list;  (* acceptors; readers detach *)
  mutable exec_domains : unit Domain.t list;
  exec_jobs : int Atomic.t array;  (* per-executor completed jobs *)
  exec_busy_us : float Atomic.t array;  (* per-executor execution time *)
  mutable conns : conn list;  (* guarded by [lock] *)
  jobs_done : int Atomic.t;
}

(* --- writing ----------------------------------------------------------- *)

(* A dead peer must never kill the server: write failures just mark the
   connection dead and the payload is dropped. *)
let send conn json =
  if Atomic.get conn.alive then begin
    Mutex.lock conn.wlock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock conn.wlock)
      (fun () ->
        try Frame.write conn.fd (J.to_string json)
        with Unix.Unix_error _ | Frame.Truncated ->
          Atomic.set conn.alive false)
  end

let send_response conn (r : P.response) = send conn (P.response_to_json r)
let send_event conn e = send conn (P.event_to_json e)

let error_response ~rid ~workload status =
  { P.rid; workload; status; payload = J.Null; meta = [] }

(* --- executors --------------------------------------------------------- *)

let run_job t ~ex job =
  let conn = job.jconn in
  if Atomic.get job.cancel then begin
    (* Cancelled while still queued: answer without executing. *)
    if Atomic.get conn.alive then begin
      (* account before answering: the final response is the ordering
         clients synchronize on, so counters must already be visible *)
      Atomic.incr t.jobs_done;
      send_response conn
        {
          P.rid = job.req.P.id;
          workload = P.workload_name job.req.P.workload;
          status = P.Cancelled;
          payload = J.Null;
          meta = [];
        }
    end
  end
  else if Atomic.get conn.alive then begin
    send_event conn (P.Started { rid = job.req.P.id });
    let queue_wait = Obs.Clock.monotonic_s () -. job.submitted_s in
    let req =
      match (job.req.P.timeout_s, t.config.default_timeout_s) with
      | None, (Some _ as d) -> { job.req with P.timeout_s = d }
      | _ -> job.req
    in
    Mutex.lock t.lock;
    t.running <- (req.P.id, conn, job.cancel) :: t.running;
    Mutex.unlock t.lock;
    let t0 = Obs.Clock.monotonic_us () in
    let resp =
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock t.lock;
          t.running <-
            List.filter
              (fun (rid, c, _) -> not (rid = req.P.id && c == conn))
              t.running;
          Mutex.unlock t.lock)
        (fun () -> Api.execute ~cancel:job.cancel req)
    in
    Atomic.set
      t.exec_busy_us.(ex)
      (Atomic.get t.exec_busy_us.(ex) +. (Obs.Clock.monotonic_us () -. t0));
    (* A cancelled job that aborted at a deadline poll surfaces as
       Timeout; report it as Cancelled.  If it outraced the token and
       completed, the genuine result stands. *)
    let resp =
      match (Atomic.get job.cancel, resp.P.status) with
      | true, P.Failed (Sim.Sim_error.Timeout _) ->
        { resp with P.status = P.Cancelled; payload = J.Null }
      | _ -> resp
    in
    let resp =
      { resp with P.meta = resp.P.meta @ [ ("queue_wait_s", J.Num queue_wait) ] }
    in
    if req.P.telemetry then
      send_event conn
        (P.Telemetry { rid = req.P.id; body = Api.stats_payload () });
    (* account before answering: clients synchronize on the final
       response, so the per-executor counters must already be visible *)
    Atomic.incr t.jobs_done;
    Atomic.incr t.exec_jobs.(ex);
    send_response conn resp
  end;
  Atomic.decr conn.pending;
  maybe_close conn

(* Pop the next job in round-robin order.  Caller holds [t.lock]. *)
let take_next t =
  match t.rr with
  | [] -> None
  | conn :: rest ->
    let job = Queue.pop conn.jobs in
    t.queued <- t.queued - 1;
    t.rr <- (if Queue.is_empty conn.jobs then rest else rest @ [ conn ]);
    Some job

let executor t ex () =
  (* Label this domain's pool account so `losac stats` renders a row per
     executor (its caller-helps chunks are charged here, not to a
     generic "caller" row). *)
  Par.Pool.set_role (Printf.sprintf "exec-%d" ex);
  let rec loop () =
    Mutex.lock t.lock;
    while t.queued = 0 && not (Atomic.get t.shutdown) do
      Condition.wait t.nonempty t.lock
    done;
    (* Drain semantics: on shutdown, admitted jobs still run to
       completion; only then does the executor exit. *)
    match take_next t with
    | Some job ->
      Obs.Metrics.set "serve.queue_depth" (float_of_int t.queued);
      Mutex.unlock t.lock;
      run_job t ~ex job;
      loop ()
    | None ->
      Mutex.unlock t.lock;
      if not (Atomic.get t.shutdown) then loop ()
  in
  loop ()

(* --- admission --------------------------------------------------------- *)

(* Reader-thread path for [cancel {target}]: never queued.  Scans the
   connection's own queued jobs and the running set (same connection
   only — a client may not cancel another client's work). *)
let handle_cancel t conn ~(req : P.request) ~target =
  let found = ref false in
  Mutex.lock t.lock;
  Queue.iter
    (fun j ->
      if j.req.P.id = target && not (Atomic.get j.cancel) then begin
        Atomic.set j.cancel true;
        found := true
      end)
    conn.jobs;
  List.iter
    (fun (rid, c, cancel) ->
      if rid = target && c == conn then begin
        Atomic.set cancel true;
        found := true
      end)
    t.running;
  Mutex.unlock t.lock;
  if !found then Obs.Metrics.incr "serve.cancelled";
  send_response conn
    {
      P.rid = req.P.id;
      workload = "cancel";
      status = P.Done;
      payload =
        J.Obj
          [
            ("target", J.Num (float_of_int target));
            ("cancelled", J.Bool !found);
          ];
      meta = [];
    }

let admit t conn (req : P.request) =
  match req.P.workload with
  | P.Cancel { target } -> handle_cancel t conn ~req ~target
  | _ ->
    if Atomic.get t.shutdown then
      send_response conn
        (error_response ~rid:req.P.id
           ~workload:(P.workload_name req.P.workload) P.Shutting_down)
    else begin
      Mutex.lock t.lock;
      let depth = t.queued in
      if depth >= t.config.queue_limit then begin
        Mutex.unlock t.lock;
        Obs.Metrics.incr "serve.overloaded";
        send_response conn
          (error_response ~rid:req.P.id
             ~workload:(P.workload_name req.P.workload)
             (P.Overloaded { depth; limit = t.config.queue_limit }))
      end
      else begin
        Atomic.incr conn.pending;
        let was_empty = Queue.is_empty conn.jobs in
        Queue.add
          {
            req;
            jconn = conn;
            submitted_s = Obs.Clock.monotonic_s ();
            cancel = Atomic.make false;
          }
          conn.jobs;
        if was_empty then t.rr <- t.rr @ [ conn ];
        t.queued <- t.queued + 1;
        let depth = t.queued in
        Obs.Metrics.set "serve.queue_depth" (float_of_int depth);
        Condition.signal t.nonempty;
        Mutex.unlock t.lock;
        send_event conn (P.Ack { rid = req.P.id; queue_depth = depth })
      end
    end

(* --- reader ------------------------------------------------------------ *)

(* Poll so a blocked read notices shutdown within a quarter second. *)
let readable ?(timeout = 0.25) fd =
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> true
  (* EINTR: retry next round.  EBADF: another thread closed the fd while
     we polled; the alive check at the top of the loop ends the reader. *)
  | exception Unix.Unix_error _ -> false

let reader t conn () =
  let bad rid msg =
    send_response conn
      (error_response ~rid ~workload:"unknown" (P.Bad_request msg))
  in
  let rec loop () =
    if Atomic.get conn.alive && not (Atomic.get t.shutdown) then
      if not (readable conn.fd) then loop ()
      else
        match Frame.read ~max_frame:t.config.max_frame conn.fd with
        | None -> Atomic.set conn.alive false
        | Some payload ->
          (match J.parse payload with
           | Error msg ->
             (* Parse errors keep the connection: framing is intact, so
                the next frame is still delimited. *)
             bad (-1) (Printf.sprintf "invalid JSON: %s" msg);
             loop ()
           | Ok json ->
             (match P.request_of_json json with
              | Error msg ->
                bad (P.salvage_id json) msg;
                loop ()
              | Ok req ->
                admit t conn req;
                loop ()))
        | exception Frame.Oversized { length; limit } ->
          (* The payload was never consumed — the stream is unusable. *)
          bad (-1)
            (Printf.sprintf "frame of %d bytes exceeds the %d byte limit"
               length limit);
          Atomic.set conn.alive false
        | exception (Frame.Truncated | Unix.Unix_error _) ->
          Atomic.set conn.alive false
    else if Atomic.get conn.alive && Atomic.get t.shutdown then begin
      (* Give a pipelining client its rejections rather than vanishing. *)
      match
        if readable ~timeout:0.05 conn.fd then
          Frame.read ~max_frame:t.config.max_frame conn.fd
        else None
      with
      | Some payload ->
        (match J.parse payload with
         | Ok json ->
           (match P.request_of_json json with
            | Ok req -> admit t conn req
            | Error _ -> ())
         | Error _ -> ())
      | None | (exception _) -> ()
    end
  in
  loop ();
  (* On shutdown a live connection stays writable for the answers of its
     admitted jobs; [stop] kills it once the executors have drained. *)
  if not (Atomic.get conn.alive && Atomic.get t.shutdown) then kill conn

(* --- lifecycle --------------------------------------------------------- *)

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  fd

let listen_tcp host port =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_of_string host
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 16;
  fd

let acceptor t listen_fd () =
  let rec loop () =
    if not (Atomic.get t.shutdown) then
      if not (readable listen_fd) then loop ()
      else
        match Unix.accept ~cloexec:true listen_fd with
        | fd, _ ->
          let conn =
            {
              fd;
              wlock = Mutex.create ();
              alive = Atomic.make true;
              pending = Atomic.make 0;
              closed = Atomic.make false;
              jobs = Queue.create ();
            }
          in
          Mutex.lock t.lock;
          t.conns <- conn :: List.filter (fun c -> Atomic.get c.alive) t.conns;
          Mutex.unlock t.lock;
          ignore (Thread.create (reader t conn) ());
          loop ()
        | exception Unix.Unix_error _ -> loop ()
  in
  loop ()

let start config =
  (* A peer closing mid-write must surface as EPIPE, not kill us. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let n_exec = max 1 (min 16 config.executors) in
  let t =
    {
      config;
      n_exec;
      shutdown = Atomic.make false;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      rr = [];
      queued = 0;
      running = [];
      listeners = [];
      threads = [];
      exec_domains = [];
      exec_jobs = Array.init n_exec (fun _ -> Atomic.make 0);
      exec_busy_us = Array.init n_exec (fun _ -> Atomic.make 0.0);
      conns = [];
      jobs_done = Atomic.make 0;
    }
  in
  let listeners =
    (match config.socket_path with
     | Some path -> [ listen_unix path ]
     | None -> [])
    @
    match config.tcp with
    | Some (host, port) -> [ listen_tcp host port ]
    | None -> []
  in
  if listeners = [] then
    invalid_arg "Serve.Server.start: no socket_path and no tcp address";
  t.listeners <- listeners;
  (* Executors are domains (not threads): context-local flag bindings
     live in domain-local storage, so isolation requires one domain per
     concurrently-running job. *)
  t.exec_domains <-
    List.init n_exec (fun ex -> Domain.spawn (executor t ex));
  t.threads <- List.map (fun fd -> Thread.create (acceptor t fd) ()) listeners;
  t

let jobs_done t = Atomic.get t.jobs_done

let queue_depth t =
  Mutex.lock t.lock;
  let d = t.queued in
  Mutex.unlock t.lock;
  d

let executors t = t.n_exec

let executor_stats t =
  List.init t.n_exec (fun ex ->
      {
        ex_id = ex;
        ex_jobs = Atomic.get t.exec_jobs.(ex);
        ex_busy_s = Atomic.get t.exec_busy_us.(ex) /. 1e6;
      })

let stop t =
  Atomic.set t.shutdown true;
  Mutex.lock t.lock;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  (* Joining the executors IS the drain: each exits only once the queues
     are empty and its in-flight job has answered. *)
  List.iter Domain.join t.exec_domains;
  t.exec_domains <- [];
  List.iter Thread.join t.threads;
  t.threads <- [];
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
  t.listeners <- [];
  Mutex.lock t.lock;
  let conns = t.conns in
  t.conns <- [];
  Mutex.unlock t.lock;
  (* Readers poll [alive]/[shutdown] every 0.25 s; give the stragglers a
     moment, then kill whatever is left (the close-once latch makes this
     safe against a reader racing to the same conclusion). *)
  Unix.sleepf 0.3;
  List.iter kill conns;
  match t.config.socket_path with
  | Some path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ()

let run config =
  let t = start config in
  let stopping = Atomic.make false in
  let request_stop _ = Atomic.set stopping true in
  let previous =
    List.map
      (fun s -> (s, Sys.signal s (Sys.Signal_handle request_stop)))
      [ Sys.sigterm; Sys.sigint ]
  in
  let rec wait () =
    if Atomic.get stopping then ()
    else begin
      Unix.sleepf 0.2;
      wait ()
    end
  in
  wait ();
  stop t;
  List.iter (fun (s, b) -> try Sys.set_signal s b with Invalid_argument _ -> ()) previous;
  jobs_done t
