type t = {
  proc : Technology.Process.t;
  jobs : int option;
  cache : bool option;
  telemetry : bool option;
  label : string option;
  deadline : float option;
  cancel : bool Atomic.t;
  seed : int option;
}

let make ?jobs ?cache ?telemetry ?label ?deadline ?cancel ?seed proc =
  let cancel = match cancel with Some c -> c | None -> Atomic.make false in
  { proc; jobs; cache; telemetry; label; deadline; cancel; seed }

let with_timeout timeout_s ctx =
  match timeout_s with
  | None -> ctx
  | Some t -> { ctx with deadline = Some (Obs.Clock.monotonic_s () +. t) }

let cancelled ctx =
  match ctx with None -> false | Some c -> Atomic.get c.cancel

let check_deadline ?(analysis = "exec") ctx =
  match ctx with
  | None -> ()
  | Some c ->
    (* A cancellation token behaves as "deadline moved to now": the same
       safe interruption points that poll the deadline observe it, and
       it surfaces through the same [Deadline_exceeded] path. *)
    if Atomic.get c.cancel then
      raise (Sim.Sim_error.Deadline_exceeded (analysis, 0.));
    (match c.deadline with
     | None -> ()
     | Some d ->
       let now = Obs.Clock.monotonic_s () in
       if now > d then
         raise (Sim.Sim_error.Deadline_exceeded (analysis, now -. d)))

let jobs ?override ctx =
  match override with
  | Some _ -> override
  | None -> ( match ctx with Some c -> c.jobs | None -> None)

let default_seed = 42

let seed ?override ctx =
  match override with
  | Some s -> s
  | None ->
    (match (match ctx with Some c -> c.seed | None -> None) with
     | Some s -> s
     | None ->
       (* the environment is the outermost binding: it lets `bench` and
          scripted runs be re-seeded without touching any call site *)
       (match Sys.getenv_opt "LOSAC_SEED" with
        | Some s ->
          (match int_of_string_opt (String.trim s) with
           | Some v -> v
           | None -> default_seed)
        | None -> default_seed))

let proc ?override ctx =
  match (override, ctx) with
  | Some p, _ -> p
  | None, Some c -> c.proc
  | None, None ->
    invalid_arg "Ctx.proc: no process given (pass ~proc or ~ctx)"

let scope ctx f =
  match ctx with
  | None -> ( try Ok (f ()) with e -> Error e)
  | Some c ->
    let with_opt apply o k =
      match o with None -> k () | Some v -> apply v k
    in
    (* Each switch binds context-locally (domain-local fluids), so two
       scopes with conflicting flags can run concurrently on different
       domains without observing each other; [None] fields leave the
       outer binding (or the process global) visible.  [Par.Pool]
       re-installs these bindings around every chunk it runs for us. *)
    with_opt Cache.Config.with_enabled c.cache @@ fun () ->
    with_opt Obs.Config.with_enabled c.telemetry @@ fun () ->
    let labelled () =
      match c.label with
      | None -> f ()
      | Some l -> Obs.Trace.with_span ~cat:"exec" l f
    in
    ( try Ok (labelled ()) with e -> Error e)

let run ctx f =
  match scope ctx f with Ok v -> v | Error e -> raise e
