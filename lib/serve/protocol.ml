module J = Obs.Json

let version = "losac.job/1"

(* --- requests --------------------------------------------------------- *)

type workload =
  | Ping
  | Sleep of { seconds : float }
  | Tech
  | Stats
  | Synth of { case : Core.Flow.case }
  | Size of { topology : string }
  | Mc of { n : int; seed : int }
  | Corners
  | Verify of { samples : int; seed : int }
  | Optimize of { starts : int; budget : int; strategy : string; lut : bool }
  | Cancel of { target : int }

type request = {
  id : int;
  workload : workload;
  proc : string;
  kind : Device.Model.kind;
  spec : Comdiac.Spec.t;
  jobs : int option;
  cache : bool option;
  seed : int option;
  timeout_s : float option;
  telemetry : bool;
}

let request ?(id = 0) ?(proc = "c06") ?(kind = Device.Model.Bsim_lite)
    ?(spec = Comdiac.Spec.paper_ota) ?jobs ?cache ?seed
    ?timeout_s ?(telemetry = false) workload =
  { id; workload; proc; kind; spec; jobs; cache; seed;
    timeout_s; telemetry }

let workload_name = function
  | Ping -> "ping"
  | Sleep _ -> "sleep"
  | Tech -> "tech"
  | Stats -> "stats"
  | Synth _ -> "synth"
  | Size _ -> "size"
  | Mc _ -> "mc"
  | Corners -> "corners"
  | Verify _ -> "verify"
  | Optimize _ -> "optimize"
  | Cancel _ -> "cancel"

let case_to_int = function
  | Core.Flow.Case1 -> 1
  | Core.Flow.Case2 -> 2
  | Core.Flow.Case3 -> 3
  | Core.Flow.Case4 -> 4

let case_of_int = function
  | 1 -> Some Core.Flow.Case1
  | 2 -> Some Core.Flow.Case2
  | 3 -> Some Core.Flow.Case3
  | 4 -> Some Core.Flow.Case4
  | _ -> None

let kind_of_string = function
  | "level1" -> Some Device.Model.Level1
  | "bsim-lite" | "bsim" -> Some Device.Model.Bsim_lite
  | _ -> None

(* --- statuses and responses ------------------------------------------- *)

type status =
  | Done
  | Failed of Sim.Sim_error.t
  | Bad_request of string
  | Internal of string
  | Overloaded of { depth : int; limit : int }
  | Shutting_down
  | Cancelled

type response = {
  rid : int;
  workload : string;
  status : status;
  payload : J.t;
  meta : (string * J.t) list;
}

type event =
  | Ack of { rid : int; queue_depth : int }
  | Started of { rid : int }
  | Telemetry of { rid : int; body : J.t }

type message = Event of event | Final of response

(* --- JSON encoding ---------------------------------------------------- *)

(* Field order is fixed everywhere below: the byte-identity guarantee
   between the CLI's [--format json] output and a served response rests
   on both sides emitting structurally identical documents. *)

let workload_to_json w =
  let kv = ("kind", J.Str (workload_name w)) in
  match w with
  | Ping | Tech | Stats | Corners -> J.Obj [ kv ]
  | Sleep { seconds } -> J.Obj [ kv; ("seconds", J.Num seconds) ]
  | Synth { case } ->
    J.Obj [ kv; ("case", J.Num (float_of_int (case_to_int case))) ]
  | Size { topology } -> J.Obj [ kv; ("topology", J.Str topology) ]
  | Mc { n; seed } ->
    J.Obj
      [ kv; ("n", J.Num (float_of_int n)); ("seed", J.Num (float_of_int seed)) ]
  | Verify { samples; seed } ->
    J.Obj
      [ kv;
        ("samples", J.Num (float_of_int samples));
        ("seed", J.Num (float_of_int seed)) ]
  | Optimize { starts; budget; strategy; lut } ->
    J.Obj
      [ kv;
        ("starts", J.Num (float_of_int starts));
        ("budget", J.Num (float_of_int budget));
        ("strategy", J.Str strategy);
        ("lut", J.Bool lut) ]
  | Cancel { target } -> J.Obj [ kv; ("target", J.Num (float_of_int target)) ]

let spec_to_json (s : Comdiac.Spec.t) =
  let lo_i, hi_i = s.Comdiac.Spec.icmr in
  let lo_o, hi_o = s.Comdiac.Spec.output_range in
  J.Obj
    [
      ("vdd", J.Num s.Comdiac.Spec.vdd);
      ("gbw", J.Num s.Comdiac.Spec.gbw);
      ("phase_margin", J.Num s.Comdiac.Spec.phase_margin);
      ("cload", J.Num s.Comdiac.Spec.cload);
      ("icmr", J.Arr [ J.Num lo_i; J.Num hi_i ]);
      ("output_range", J.Arr [ J.Num lo_o; J.Num hi_o ]);
    ]

let request_to_json r =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  let ctx_fields =
    opt "jobs" (fun j -> J.Num (float_of_int j)) r.jobs
    @ opt "cache" (fun b -> J.Bool b) r.cache
    @ opt "seed" (fun s -> J.Num (float_of_int s)) r.seed
  in
  J.Obj
    ([
       ("api", J.Str version);
       ("id", J.Num (float_of_int r.id));
       ("workload", workload_to_json r.workload);
       ("proc", J.Str r.proc);
       ("model", J.Str (Device.Model.kind_to_string r.kind));
       ("spec", spec_to_json r.spec);
     ]
     @ (if ctx_fields = [] then [] else [ ("ctx", J.Obj ctx_fields) ])
     @ opt "timeout_s" (fun t -> J.Num t) r.timeout_s
     @ if r.telemetry then [ ("telemetry", J.Bool true) ] else [])

let sim_error_to_json (e : Sim.Sim_error.t) =
  let fields =
    match e with
    | Sim.Sim_error.No_convergence { analysis; detail } ->
      [ ("analysis", J.Str analysis); ("detail", J.Str detail) ]
    | Sim.Sim_error.Singular_matrix { analysis; column } ->
      [ ("analysis", J.Str analysis);
        ("column", J.Num (float_of_int column)) ]
    | Sim.Sim_error.Timeout { analysis; after_s } ->
      [ ("analysis", J.Str analysis); ("after_s", J.Num after_s) ]
  in
  J.Obj
    ((("kind", J.Str (Sim.Sim_error.kind e)) :: fields)
     @ [ ("message", J.Str (Sim.Sim_error.message e)) ])

let status_string = function
  | Done -> "ok"
  | Failed _ -> "error"
  | Bad_request _ -> "invalid_request"
  | Internal _ -> "internal_error"
  | Overloaded _ -> "overloaded"
  | Shutting_down -> "shutting_down"
  | Cancelled -> "cancelled"

let status_error_json = function
  | Done -> []
  | Failed e -> [ ("error", sim_error_to_json e) ]
  | Bad_request msg ->
    [ ("error",
       J.Obj [ ("kind", J.Str "invalid_request"); ("message", J.Str msg) ]) ]
  | Internal msg ->
    [ ("error",
       J.Obj [ ("kind", J.Str "internal_error"); ("message", J.Str msg) ]) ]
  | Overloaded { depth; limit } ->
    [ ("error",
       J.Obj
         [ ("kind", J.Str "overloaded");
           ("queue_depth", J.Num (float_of_int depth));
           ("queue_limit", J.Num (float_of_int limit));
           ("message", J.Str "job queue full, retry later") ]) ]
  | Shutting_down ->
    [ ("error",
       J.Obj
         [ ("kind", J.Str "shutting_down");
           ("message", J.Str "server is draining and accepts no new jobs") ])
    ]
  | Cancelled ->
    [ ("error",
       J.Obj
         [ ("kind", J.Str "cancelled");
           ("message", J.Str "job cancelled by request") ]) ]

let response_json ~with_meta r =
  J.Obj
    ([
       ("api", J.Str version);
       ("id", J.Num (float_of_int r.rid));
       ("event", J.Str "result");
       ("workload", J.Str r.workload);
       ("status", J.Str (status_string r.status));
     ]
     @ status_error_json r.status
     @ (match r.payload with J.Null -> [] | p -> [ ("result", p) ])
     @ if with_meta && r.meta <> [] then [ ("meta", J.Obj r.meta) ] else [])

let response_to_json r = response_json ~with_meta:true r

let canonical r = J.to_string (response_json ~with_meta:false r)

let event_to_json = function
  | Ack { rid; queue_depth } ->
    J.Obj
      [
        ("api", J.Str version);
        ("id", J.Num (float_of_int rid));
        ("event", J.Str "ack");
        ("queue_depth", J.Num (float_of_int queue_depth));
      ]
  | Started { rid } ->
    J.Obj
      [
        ("api", J.Str version);
        ("id", J.Num (float_of_int rid));
        ("event", J.Str "started");
      ]
  | Telemetry { rid; body } ->
    J.Obj
      [
        ("api", J.Str version);
        ("id", J.Num (float_of_int rid));
        ("event", J.Str "telemetry");
        ("telemetry", body);
      ]

(* --- JSON decoding ---------------------------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name json = J.member name json

let int_field ?default name json =
  match field name json with
  | Some (J.Num v) when Float.is_integer v -> Ok (int_of_float v)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
  | None ->
    (match default with
     | Some d -> Ok d
     | None -> Error (Printf.sprintf "missing integer field %S" name))

let float_field ?default name json =
  match field name json with
  | Some (J.Num v) -> Ok v
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)
  | None ->
    (match default with
     | Some d -> Ok d
     | None -> Error (Printf.sprintf "missing number field %S" name))

let str_field ?default name json =
  match field name json with
  | Some (J.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None ->
    (match default with
     | Some d -> Ok d
     | None -> Error (Printf.sprintf "missing string field %S" name))

let pair_field name ~default json =
  match field name json with
  | None -> Ok default
  | Some (J.Arr [ J.Num lo; J.Num hi ]) -> Ok (lo, hi)
  | Some _ ->
    Error (Printf.sprintf "field %S must be a two-number array" name)

let workload_of_json json =
  let* kind = str_field "kind" json in
  match kind with
  | "ping" -> Ok Ping
  | "tech" -> Ok Tech
  | "stats" -> Ok Stats
  | "corners" -> Ok Corners
  | "sleep" ->
    let* seconds = float_field "seconds" json in
    if seconds < 0.0 || not (Float.is_finite seconds) then
      Error "sleep seconds must be finite and non-negative"
    else Ok (Sleep { seconds })
  | "synth" ->
    let* c = int_field ~default:4 "case" json in
    (match case_of_int c with
     | Some case -> Ok (Synth { case })
     | None -> Error (Printf.sprintf "synth case must be 1..4, got %d" c))
  | "size" ->
    let* topology = str_field ~default:"folded-cascode" "topology" json in
    Ok (Size { topology })
  | "mc" ->
    let* n = int_field ~default:50 "n" json in
    let* seed = int_field ~default:42 "seed" json in
    if n <= 0 then Error "mc n must be positive" else Ok (Mc { n; seed })
  | "verify" ->
    let* samples = int_field ~default:30 "samples" json in
    let* seed = int_field ~default:42 "seed" json in
    if samples <= 0 then Error "verify samples must be positive"
    else Ok (Verify { samples; seed })
  | "optimize" ->
    let* starts = int_field ~default:6 "starts" json in
    let* budget = int_field ~default:480 "budget" json in
    let* strategy = str_field ~default:"nm" "strategy" json in
    let* lut =
      match field "lut" json with
      | None -> Ok true
      | Some (J.Bool b) -> Ok b
      | Some _ -> Error "optimize lut must be a boolean"
    in
    if starts <= 0 then Error "optimize starts must be positive"
    else if budget <= 0 then Error "optimize budget must be positive"
    else if not (List.mem strategy [ "nm"; "nelder-mead"; "anneal"; "annealing" ])
    then Error (Printf.sprintf "unknown optimize strategy %S (nm|anneal)" strategy)
    else Ok (Optimize { starts; budget; strategy; lut })
  | "cancel" ->
    let* target = int_field "target" json in
    Ok (Cancel { target })
  | other -> Error (Printf.sprintf "unknown workload kind %S" other)

(* Spec overrides: absent fields keep the paper's Table-1 values, and an
   override the sizing plans would refuse is refused here. *)
let spec_of_json = function
  | None -> Ok Comdiac.Spec.paper_ota
  | Some json ->
    let d = Comdiac.Spec.paper_ota in
    let* vdd = float_field ~default:d.Comdiac.Spec.vdd "vdd" json in
    let* gbw = float_field ~default:d.Comdiac.Spec.gbw "gbw" json in
    let* phase_margin =
      float_field ~default:d.Comdiac.Spec.phase_margin "phase_margin" json
    in
    let* cload = float_field ~default:d.Comdiac.Spec.cload "cload" json in
    let* icmr = pair_field "icmr" ~default:d.Comdiac.Spec.icmr json in
    let* output_range =
      pair_field "output_range" ~default:d.Comdiac.Spec.output_range json
    in
    let spec =
      { Comdiac.Spec.vdd; gbw; phase_margin; cload; icmr; output_range }
    in
    (match Comdiac.Spec.validate spec with
     | Ok () -> Ok spec
     | Error msg -> Error ("spec: " ^ msg))

let ctx_of_json json =
  match json with
  | None -> Ok (None, None, None)
  | Some cj ->
    let opt_int name =
      match field name cj with
      | None | Some J.Null -> Ok None
      | Some (J.Num v) when Float.is_integer v -> Ok (Some (int_of_float v))
      | Some _ -> Error (Printf.sprintf "ctx.%s must be an integer" name)
    in
    let* jobs =
      match opt_int "jobs" with
      | Ok (Some j) when j < 1 -> Error "ctx.jobs must be a positive integer"
      | r -> r
    in
    (* The chunk-size knob was removed: chunk size is a fixed function of
       the input size, pool width and cost class, and it never changed a
       result.  Older clients still send it, so it is still type-checked
       and then ignored. *)
    let* _chunk = opt_int "chunk" in
    let* cache =
      match field "cache" cj with
      | None | Some J.Null -> Ok None
      | Some (J.Bool b) -> Ok (Some b)
      | Some _ -> Error "ctx.cache must be a boolean"
    in
    (* The solver switch was removed; older clients still send it.  The
       dense kernel is the only solver, so "kernel" is accepted as a
       no-op and anything else is refused rather than silently ignored. *)
    let* () =
      match field "backend" cj with
      | None | Some J.Null -> Ok ()
      | Some (J.Str s) when String.lowercase_ascii s = "kernel" -> Ok ()
      | Some _ ->
        Error
          "ctx.backend was removed: every analysis runs on the dense \
           kernel (omit the field or send \"kernel\")"
    in
    let* seed = opt_int "seed" in
    Ok (jobs, cache, seed)

let request_of_json json =
  let* api = str_field "api" json in
  if api <> version then
    Error (Printf.sprintf "unsupported api %S (this server speaks %s)" api
             version)
  else
    let* id = int_field ~default:0 "id" json in
    let* wj =
      match field "workload" json with
      | Some (J.Obj _ as w) -> Ok w
      | Some _ -> Error "field \"workload\" must be an object"
      | None -> Error "missing object field \"workload\""
    in
    let* workload = workload_of_json wj in
    let* proc = str_field ~default:"c06" "proc" json in
    let* model = str_field ~default:"bsim-lite" "model" json in
    let* kind =
      match kind_of_string model with
      | Some k -> Ok k
      | None -> Error (Printf.sprintf "unknown model %S (level1|bsim-lite)" model)
    in
    let* spec = spec_of_json (field "spec" json) in
    let* jobs, cache, seed = ctx_of_json (field "ctx" json) in
    let* timeout_s =
      match field "timeout_s" json with
      | None | Some J.Null -> Ok None
      | Some (J.Num t) when t >= 0.0 -> Ok (Some t)
      | Some _ -> Error "timeout_s must be a non-negative number"
    in
    let* telemetry =
      match field "telemetry" json with
      | None -> Ok false
      | Some (J.Bool b) -> Ok b
      | Some _ -> Error "telemetry must be a boolean"
    in
    Ok
      { id; workload; proc; kind; spec; jobs; cache; seed;
        timeout_s; telemetry }

(* The id recoverable from an arbitrary (possibly invalid) request, for
   error responses. *)
let salvage_id json =
  match J.member "id" json with
  | Some (J.Num v) when Float.is_integer v -> int_of_float v
  | _ -> -1

let sim_error_of_json json =
  let* kind = str_field "kind" json in
  match kind with
  | "no_convergence" ->
    let* analysis = str_field "analysis" json in
    let* detail = str_field "detail" json in
    Ok (Sim.Sim_error.No_convergence { analysis; detail })
  | "singular_matrix" ->
    let* analysis = str_field "analysis" json in
    let* column = int_field "column" json in
    Ok (Sim.Sim_error.Singular_matrix { analysis; column })
  | "timeout" ->
    let* analysis = str_field "analysis" json in
    let* after_s = float_field "after_s" json in
    Ok (Sim.Sim_error.Timeout { analysis; after_s })
  | other -> Error (Printf.sprintf "unknown simulator error kind %S" other)

let status_of_json json =
  let* status = str_field "status" json in
  let err () =
    match field "error" json with
    | Some e -> Ok e
    | None -> Error "error status without an \"error\" object"
  in
  match status with
  | "ok" -> Ok Done
  | "error" ->
    let* e = err () in
    let* sim = sim_error_of_json e in
    Ok (Failed sim)
  | "invalid_request" ->
    let* e = err () in
    let* msg = str_field "message" e in
    Ok (Bad_request msg)
  | "internal_error" ->
    let* e = err () in
    let* msg = str_field "message" e in
    Ok (Internal msg)
  | "overloaded" ->
    let* e = err () in
    let* depth = int_field "queue_depth" e in
    let* limit = int_field "queue_limit" e in
    Ok (Overloaded { depth; limit })
  | "shutting_down" -> Ok Shutting_down
  | "cancelled" -> Ok Cancelled
  | other -> Error (Printf.sprintf "unknown status %S" other)

let message_of_json json =
  let* api = str_field "api" json in
  if api <> version then Error (Printf.sprintf "unsupported api %S" api)
  else
    let* rid = int_field "id" json in
    let* event = str_field "event" json in
    match event with
    | "ack" ->
      let* queue_depth = int_field "queue_depth" json in
      Ok (Event (Ack { rid; queue_depth }))
    | "started" -> Ok (Event (Started { rid }))
    | "telemetry" ->
      let body = Option.value ~default:J.Null (field "telemetry" json) in
      Ok (Event (Telemetry { rid; body }))
    | "result" ->
      let* status = status_of_json json in
      let* workload = str_field ~default:"?" "workload" json in
      let payload = Option.value ~default:J.Null (field "result" json) in
      let meta =
        match field "meta" json with Some (J.Obj kvs) -> kvs | _ -> []
      in
      Ok (Final { rid; workload; status; payload; meta })
    | other -> Error (Printf.sprintf "unknown event %S" other)
