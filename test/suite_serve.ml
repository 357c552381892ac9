open Helpers
module J = Obs.Json
module P = Serve.Protocol

let proc = Technology.Process.c06
let kind = Device.Model.Bsim_lite
let spec = Comdiac.Spec.paper_ota

(* --- wire protocol -------------------------------------------------------- *)

(* Shortest-round-trip float emission is what makes the canonical-form
   byte-identity claim hold across a parse/print cycle: a request that
   travelled through the socket must decode to bit-equal floats. *)
let prop_float_roundtrip =
  QCheck.Test.make ~name:"json numbers round-trip bit-exactly" ~count:2000
    QCheck.float (fun v ->
      QCheck.assume (Float.is_finite v);
      match J.parse (J.to_string (J.Num v)) with
      | Ok (J.Num v') -> Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v')
      | _ -> false)

let workload_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return P.Ping);
        (1, map (fun s -> P.Sleep { seconds = s }) (float_bound_inclusive 0.01));
        (1, return P.Tech);
        (1, return P.Stats);
        (2,
         map
           (fun i ->
             P.Synth { case = Option.get (P.case_of_int (1 + (i mod 4))) })
           small_nat);
        (2,
         map
           (fun i ->
             P.Size
               { topology = List.nth [ "folded-cascode"; "two-stage"; "5t" ]
                   (i mod 3) })
           small_nat);
        (2,
         map2 (fun n seed -> P.Mc { n = 1 + n; seed }) small_nat small_nat);
        (1, return P.Corners);
        (2,
         map2
           (fun samples seed -> P.Verify { samples = 1 + samples; seed })
           small_nat small_nat);
        (2,
         map3
           (fun starts budget nm ->
             P.Optimize
               {
                 starts = 1 + starts;
                 budget = 8 + budget;
                 strategy = (if nm then "nm" else "anneal");
                 lut = nm;
               })
           small_nat small_nat bool);
      ])

let request_gen =
  QCheck.Gen.(
    let opt g = frequency [ (1, return None); (2, map Option.some g) ] in
    (* any spec Spec.validate accepts: the decoder refuses the rest *)
    let hi_out = snd Comdiac.Spec.paper_ota.Comdiac.Spec.output_range in
    workload_gen >>= fun workload ->
    int_bound 100000 >>= fun id ->
    oneofl [ "c06"; "c035" ] >>= fun proc ->
    oneofl [ Device.Model.Level1; Device.Model.Bsim_lite ] >>= fun kind ->
    float_range hi_out 1e6 >>= fun vdd ->
    float_range 1.0 1e12 >>= fun gbw ->
    opt (int_range 1 8) >>= fun jobs ->
    opt bool >>= fun cache ->
    opt (int_bound 9999) >>= fun seed ->
    opt (float_bound_inclusive 10.0) >>= fun timeout_s ->
    bool >>= fun telemetry ->
    return
      (P.request ~id ~proc ~kind
         ~spec:{ Comdiac.Spec.paper_ota with Comdiac.Spec.vdd; gbw }
         ?jobs ?cache ?seed ?timeout_s ~telemetry workload))

let prop_request_roundtrip =
  QCheck.Test.make ~name:"requests round-trip through the wire encoding"
    ~count:300
    (QCheck.make request_gen)
    (fun r ->
      let doc = J.to_string (P.request_to_json r) in
      match J.parse doc with
      | Error _ -> false
      | Ok json ->
        (match P.request_of_json json with
         | Error _ -> false
         | Ok r' -> String.equal doc (J.to_string (P.request_to_json r'))))

let test_request_decode_errors () =
  let decode s =
    match J.parse s with
    | Error m -> Error m
    | Ok json -> Result.map (fun _ -> ()) (P.request_of_json json)
  in
  let is_error what = function
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s unexpectedly decoded" what
  in
  is_error "wrong version"
    (decode {|{"api":"losac.job/0","workload":{"kind":"ping"}}|});
  is_error "missing workload" (decode {|{"api":"losac.job/1"}|});
  is_error "unknown workload"
    (decode {|{"api":"losac.job/1","workload":{"kind":"?"}}|});
  is_error "bad case"
    (decode {|{"api":"losac.job/1","workload":{"kind":"synth","case":9}}|});
  is_error "bad timeout"
    (decode {|{"api":"losac.job/1","workload":{"kind":"ping"},"timeout_s":-1}|});
  is_error "ill-typed spec"
    (decode
       {|{"api":"losac.job/1","workload":{"kind":"ping"},"spec":{"vdd":"x"}}|});
  (* spec overrides the sizing plans would refuse are refused at decode *)
  List.iter
    (fun spec ->
      match
        decode
          (Printf.sprintf
             {|{"api":"losac.job/1","workload":{"kind":"synth"},"spec":%s}|}
             spec)
      with
      | Ok () -> Alcotest.failf "spec %s unexpectedly decoded" spec
      | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "spec %s: message names the spec" spec)
          true
          (String.starts_with ~prefix:"spec: " m))
    [ {|{"gbw":0}|}; {|{"cload":-1}|}; {|{"vdd":-3.3}|};
      {|{"phase_margin":95}|}; {|{"icmr":[2,1]}|};
      {|{"output_range":[0.5,4.0]}|}; {|{"gbw":1e400}|} ];
  (match decode {|{"api":"losac.job/1","workload":{"kind":"ping"}}|} with
   | Ok () -> ()
   | Error m -> Alcotest.failf "minimal request rejected: %s" m);
  (* the removed solver switch: "kernel" is a no-op, anything else is
     refused with a message naming the removal *)
  let with_backend v =
    decode
      (Printf.sprintf
         {|{"api":"losac.job/1","workload":{"kind":"ping"},"ctx":{"backend":%s}}|}
         v)
  in
  List.iter
    (fun v ->
      match with_backend v with
      | Ok () -> Alcotest.failf "ctx.backend %s unexpectedly decoded" v
      | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "ctx.backend %s: message says removed" v)
          true
          (String.starts_with ~prefix:"ctx.backend was removed" m))
    [ {|"sparse"|}; {|"sparse-natural"|}; {|"reference"|}; {|"bogus"|};
      "1"; "true"; "[]"; "{}" ];
  (match with_backend {|"kernel"|} with
   | Ok () -> ()
   | Error m -> Alcotest.failf "ctx.backend \"kernel\" rejected: %s" m);
  Alcotest.(check int) "salvage_id finds the id" 17
    (P.salvage_id (Result.get_ok (J.parse {|{"id":17,"workload":"?"}|})));
  Alcotest.(check int) "salvage_id defaults to -1" (-1)
    (P.salvage_id (Result.get_ok (J.parse {|{"workload":"?"}|})))

(* ctx.jobs is a pool width: zero and negative widths are refused at
   decode, which the server answers as a typed invalid_request.  The
   removed ctx.chunk knob is still type-checked, then ignored. *)
let test_ctx_decoding () =
  let decode ctx =
    match
      J.parse
        (Printf.sprintf
           {|{"api":"losac.job/1","workload":{"kind":"ping"},"ctx":%s}|} ctx)
    with
    | Error m -> Error m
    | Ok json -> P.request_of_json json
  in
  List.iter
    (fun ctx ->
      match decode ctx with
      | Ok _ -> Alcotest.failf "ctx %s unexpectedly decoded" ctx
      | Error m ->
        Alcotest.(check string)
          (Printf.sprintf "ctx %s: message" ctx)
          "ctx.jobs must be a positive integer" m)
    [ {|{"jobs":0}|}; {|{"jobs":-3}|} ];
  (match decode {|{"jobs":2.5}|} with
   | Ok _ -> Alcotest.fail "fractional ctx.jobs decoded"
   | Error m -> Alcotest.(check string) "fractional jobs" "ctx.jobs must be an integer" m);
  (match decode {|{"jobs":1}|} with
   | Ok r -> Alcotest.(check (option int)) "jobs 1 kept" (Some 1) r.P.jobs
   | Error m -> Alcotest.failf "ctx.jobs 1 rejected: %s" m);
  (match decode {|{"chunk":"x"}|} with
   | Ok _ -> Alcotest.fail "ill-typed ctx.chunk decoded"
   | Error m -> Alcotest.(check string) "ill-typed chunk" "ctx.chunk must be an integer" m);
  match (decode {|{"jobs":2,"chunk":16}|}, decode {|{"jobs":2}|}) with
  | Ok with_chunk, Ok without ->
    Alcotest.(check string) "ctx.chunk ignored"
      (J.to_string (P.request_to_json without))
      (J.to_string (P.request_to_json with_chunk))
  | Error m, _ | _, Error m -> Alcotest.failf "ctx with chunk rejected: %s" m

let test_response_message_roundtrip () =
  let resp =
    {
      P.rid = 3;
      workload = "mc";
      status = P.Failed (Sim.Sim_error.Timeout { analysis = "mc"; after_s = 0.5 });
      payload = J.Null;
      meta = [ ("elapsed_s", J.Num 1.25) ];
    }
  in
  match
    Result.bind
      (J.parse (J.to_string (P.response_to_json resp)))
      P.message_of_json
  with
  | Ok (P.Final r) ->
    Alcotest.(check string) "canonical survives the wire" (P.canonical resp)
      (P.canonical r);
    Alcotest.(check int) "rid survives" 3 r.P.rid
  | Ok (P.Event _) -> Alcotest.fail "final decoded as event"
  | Error m -> Alcotest.failf "response did not round-trip: %s" m

(* --- framing --------------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair @@ fun a b ->
  let payloads = [ ""; "x"; String.make 70000 'j'; "{\"k\":1}" ] in
  List.iter (fun p -> Serve.Frame.write a p) payloads;
  List.iter
    (fun p ->
      match Serve.Frame.read b with
      | Some got ->
        Alcotest.(check int) "frame length preserved" (String.length p)
          (String.length got);
        Alcotest.(check bool) "frame bytes preserved" true (String.equal p got)
      | None -> Alcotest.fail "unexpected EOF")
    payloads;
  Unix.close a;
  Alcotest.(check bool) "clean EOF at a frame boundary is None" true
    (Serve.Frame.read b = None)

let test_frame_oversized () =
  with_socketpair @@ fun a b ->
  Serve.Frame.write a (String.make 4096 '!');
  (match Serve.Frame.read ~max_frame:128 b with
   | exception Serve.Frame.Oversized { length; limit } ->
     Alcotest.(check int) "announced length" 4096 length;
     Alcotest.(check int) "limit echoed" 128 limit
   | _ -> Alcotest.fail "oversized frame accepted")

let test_frame_truncated () =
  with_socketpair @@ fun a b ->
  (* a header promising 100 bytes, then only 3 and EOF *)
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 100l;
  ignore (Unix.write a header 0 4);
  ignore (Unix.write_substring a "abc" 0 3);
  Unix.close a;
  match Serve.Frame.read b with
  | exception Serve.Frame.Truncated -> ()
  | _ -> Alcotest.fail "mid-frame EOF not detected"

(* --- the shared dispatcher ------------------------------------------------- *)

let test_api_ping () =
  let r = Serve.Api.execute (P.request P.Ping) in
  (match r.P.status with
   | P.Done -> ()
   | _ -> Alcotest.failf "ping failed: %s" (P.status_string r.P.status));
  Alcotest.(check string) "payload" "{\"pong\":true}" (J.to_string r.P.payload)

let test_api_bad_inputs () =
  let status w ~proc =
    (Serve.Api.execute (P.request ~proc w)).P.status
  in
  (match status P.Ping ~proc:"c999" with
   | P.Bad_request _ -> ()
   | s -> Alcotest.failf "unknown tech gave %s" (P.status_string s));
  match status (P.Size { topology = "nonsense" }) ~proc:"c06" with
  | P.Bad_request _ -> ()
  | s -> Alcotest.failf "unknown topology gave %s" (P.status_string s)

let test_api_timeout () =
  (* a zero deadline must fail cooperatively between samples, never hang *)
  let r =
    Serve.Api.execute
      (P.request ~timeout_s:0.0 (P.Mc { n = 50; seed = 2 }))
  in
  (match r.P.status with
   | P.Failed (Sim.Sim_error.Timeout { analysis; _ }) ->
     Alcotest.(check string) "classified analysis" "montecarlo" analysis
   | s -> Alcotest.failf "expected timeout, got %s" (P.status_string s));
  (* a cold sizing job, which has no inner boundary, polls it once *)
  let r =
    Serve.Api.execute
      (P.request ~cache:false ~timeout_s:0.0 (P.Size { topology = "fc" }))
  in
  match r.P.status with
  | P.Failed (Sim.Sim_error.Timeout { analysis; _ }) ->
    Alcotest.(check string) "sizing analysis" "size" analysis
  | s -> Alcotest.failf "expected a sizing timeout, got %s" (P.status_string s)

let test_result_variants () =
  (* the raising and _result entry points agree on success... *)
  let ctx = Exec.Ctx.make ~label:"test" proc in
  (match Comdiac.Montecarlo.run_result ~n:3 ~seed:9 ~ctx ~kind ~spec
           (Comdiac.Folded_cascode.size ~proc ~kind ~spec
              ~parasitics:Comdiac.Parasitics.single_fold)
             .Comdiac.Folded_cascode.amp
   with
   | Ok r -> Alcotest.(check int) "three samples" 3 r.Comdiac.Montecarlo.offset_stats.Comdiac.Montecarlo.n
   | Error e -> Alcotest.failf "mc failed: %s" (Sim.Sim_error.message e));
  (* ...and an expired deadline comes back as Error Timeout, not an
     exception *)
  let dead = Exec.Ctx.with_timeout (Some 0.0) ctx in
  match
    Core.Flow.run_result ~ctx:dead ~kind ~spec Core.Flow.Case1
  with
  | Error (Sim.Sim_error.Timeout _) -> ()
  | Ok _ -> Alcotest.fail "expired deadline ran to completion"
  | Error e -> Alcotest.failf "wrong error: %s" (Sim.Sim_error.message e)

(* --- the daemon ------------------------------------------------------------ *)

let temp_socket () =
  let p = Filename.temp_file "losac-test" ".sock" in
  (try Unix.unlink p with Unix.Unix_error _ -> ());
  p

let with_server ?(config = Serve.Server.default_config) f =
  let path = temp_socket () in
  let server =
    Serve.Server.start { config with Serve.Server.socket_path = Some path }
  in
  Fun.protect
    ~finally:(fun () -> try Serve.Server.stop server with _ -> ())
    (fun () -> f server path)

let test_served_equals_direct () =
  (* N concurrent clients submitting the same job must all receive the
     byte-identical canonical response the one-shot CLI would print. *)
  with_server @@ fun _server path ->
  let req = P.request ~id:11 (P.Mc { n = 4; seed = 7 }) in
  let expected = P.canonical (Serve.Api.execute req) in
  let results = Array.make 4 "" in
  let threads =
    List.init 4 (fun k ->
      Thread.create
        (fun () ->
          let c = Serve.Client.connect path in
          results.(k) <- P.canonical (Serve.Client.call c req);
          Serve.Client.close c)
        ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun k got ->
      Alcotest.(check bool)
        (Printf.sprintf "client %d bit-identical to the direct call" k)
        true
        (String.equal expected got))
    results

(* A served synth job in the 45 MHz sizing hole fails as a typed
   non-convergence, the document the one-shot CLI prints. *)
let test_served_sizing_hole_typed () =
  with_server @@ fun _server path ->
  let req =
    P.request ~id:3
      ~spec:{ spec with Comdiac.Spec.gbw = 45e6; cload = 3e-12 }
      (P.Synth { case = Option.get (P.case_of_int 2) })
  in
  let c = Serve.Client.connect path in
  let r =
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () -> Serve.Client.call c req)
  in
  (match r.P.status with
   | P.Failed (Sim.Sim_error.No_convergence { analysis; _ }) ->
     Alcotest.(check string) "analysis" "flow" analysis
   | s -> Alcotest.failf "expected no_convergence, got %s" (P.status_string s));
  Alcotest.(check string) "served = direct" (P.canonical (Serve.Api.execute req))
    (P.canonical r)

let test_optimize_served_equals_direct () =
  (* the optimize workload over the wire must return the byte-identical
     canonical response the one-shot `losac optimize --format json`
     path computes (both go through Serve.Api.execute) *)
  with_server @@ fun _server path ->
  let req =
    P.request ~id:12 ~seed:5
      (P.Optimize { starts = 2; budget = 16; strategy = "nm"; lut = true })
  in
  let direct = Serve.Api.execute req in
  (match direct.P.status with
   | P.Done -> ()
   | s -> Alcotest.failf "optimize failed: %s" (P.status_string s));
  let c = Serve.Client.connect path in
  let served = Serve.Client.call c req in
  Serve.Client.close c;
  Alcotest.(check bool) "served bit-identical to the direct call" true
    (String.equal (P.canonical direct) (P.canonical served))

let test_optimize_cancel () =
  (* a deliberately huge budget: the run must die at a candidate
     boundary long before finishing *)
  with_server @@ fun _server path ->
  let c = Serve.Client.connect path in
  Serve.Client.submit c
    (P.request ~id:33
       (P.Optimize
          { starts = 4; budget = 100000; strategy = "anneal"; lut = true }));
  Thread.delay 0.15;
  Serve.Client.submit c (P.request ~id:34 (P.Cancel { target = 33 }));
  let ack = Serve.Client.await c 34 in
  (match ack.P.status with
   | P.Done -> ()
   | s -> Alcotest.failf "cancel ack gave %s" (P.status_string s));
  let r = Serve.Client.await c 33 in
  Serve.Client.close c;
  match r.P.status with
  | P.Cancelled -> ()
  | s -> Alcotest.failf "expected cancelled, got %s" (P.status_string s)

let test_served_events_in_order () =
  with_server @@ fun _server path ->
  let c = Serve.Client.connect path in
  let events = ref [] in
  let r =
    Serve.Client.call
      ~on_event:(fun e -> events := e :: !events)
      c
      (P.request ~id:5 ~telemetry:true P.Ping)
  in
  Serve.Client.close c;
  (match r.P.status with
   | P.Done -> ()
   | s -> Alcotest.failf "ping failed: %s" (P.status_string s));
  match List.rev !events with
  | [ P.Ack { rid = 5; queue_depth }; P.Started { rid = 5 };
      P.Telemetry { rid = 5; _ } ] ->
    Alcotest.(check bool) "ack carries a sane depth" true (queue_depth >= 1)
  | es -> Alcotest.failf "unexpected event sequence (%d events)" (List.length es)

let test_served_malformed_keeps_connection () =
  with_server @@ fun _server path ->
  (* raw invalid JSON: the framing is intact, so the server answers
     invalid_request and the connection must stay usable *)
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  Serve.Frame.write sock "this is not json";
  (match Serve.Frame.read sock with
   | Some payload ->
     (match Result.bind (J.parse payload) P.message_of_json with
      | Ok (P.Final r) ->
        (match r.P.status with
         | P.Bad_request _ -> ()
         | s -> Alcotest.failf "malformed gave %s" (P.status_string s));
        Alcotest.(check int) "salvaged id is -1" (-1) r.P.rid
      | _ -> Alcotest.fail "expected a final error response")
   | None -> Alcotest.fail "connection closed on malformed JSON");
  (* a well-formed request with an invalid spec override is refused the
     same way, with its own id *)
  Serve.Frame.write sock
    {|{"api":"losac.job/1","id":7,"workload":{"kind":"synth"},"spec":{"gbw":0}}|};
  (match Serve.Frame.read sock with
   | Some payload ->
     (match Result.bind (J.parse payload) P.message_of_json with
      | Ok (P.Final r) ->
        (match r.P.status with
         | P.Bad_request _ -> ()
         | s -> Alcotest.failf "gbw 0 gave %s" (P.status_string s));
        Alcotest.(check int) "refusal carries the request id" 7 r.P.rid
      | _ -> Alcotest.fail "expected a final error response")
   | None -> Alcotest.fail "connection closed on an invalid spec");
  (* same connection still serves valid requests *)
  Serve.Frame.write sock
    (J.to_string (P.request_to_json (P.request ~id:8 P.Ping)));
  let rec final () =
    match Serve.Frame.read sock with
    | None -> Alcotest.fail "EOF before the ping response"
    | Some payload ->
      (match Result.bind (J.parse payload) P.message_of_json with
       | Ok (P.Final r) -> r
       | Ok (P.Event _) -> final ()
       | Error m -> Alcotest.failf "bad frame: %s" m)
  in
  let r = final () in
  Alcotest.(check int) "ping answered on the same connection" 8 r.P.rid;
  Unix.close sock

let test_served_oversized_closes_connection () =
  with_server ~config:{ Serve.Server.default_config with max_frame = 256 }
  @@ fun _server path ->
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  (* only the length header of a 1,024-byte frame: it is all the server
     reads before it refuses the frame and closes, so no payload write can
     race the close *)
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 1024l;
  Alcotest.(check int) "header written" 4 (Unix.write sock header 0 4);
  (match Serve.Frame.read sock with
   | Some payload ->
     (match Result.bind (J.parse payload) P.message_of_json with
      | Ok (P.Final r) ->
        (match r.P.status with
         | P.Bad_request msg ->
           Alcotest.(check bool) "mentions the limit" true
             (String.length msg > 0)
         | s -> Alcotest.failf "oversized gave %s" (P.status_string s))
      | _ -> Alcotest.fail "expected a final error response")
   | None -> Alcotest.fail "no error response before close");
  (* the stream is unusable past an oversized header: EOF follows *)
  (match Serve.Frame.read sock with
   | None -> ()
   | Some _ -> Alcotest.fail "connection survived an oversized frame"
   | exception Serve.Frame.Truncated -> ());
  Unix.close sock

let test_served_overloaded () =
  (* pinned to one executor: the assertions below rely on single-executor
     ordering (job 2 stays queued while job 1 runs, so the queue is full
     when job 3 arrives) *)
  with_server
    ~config:
      { Serve.Server.default_config with queue_limit = 1; executors = 1 }
  @@ fun _server path ->
  let c = Serve.Client.connect path in
  (* occupy the executor; once it dequeues job 1 the queue is empty again *)
  Serve.Client.submit c (P.request ~id:1 (P.Sleep { seconds = 0.6 }));
  Thread.delay 0.15;
  (* queue_limit = 1: one more job fills the queue, the next is rejected *)
  Serve.Client.submit c (P.request ~id:2 (P.Sleep { seconds = 0.01 }));
  Serve.Client.submit c (P.request ~id:3 P.Ping);
  let r3 = Serve.Client.await c 3 in
  (match r3.P.status with
   | P.Overloaded { depth; limit } ->
     Alcotest.(check int) "limit echoed" 1 limit;
     Alcotest.(check bool) "depth at the limit" true (depth >= 1)
   | s -> Alcotest.failf "expected overloaded, got %s" (P.status_string s));
  (* [await] discards other ids' finals, so collect them in executor
     order: job 1 answers before job 2 *)
  let r1 = Serve.Client.await c 1 in
  (match r1.P.status with
   | P.Done -> ()
   | s -> Alcotest.failf "running job failed: %s" (P.status_string s));
  let r2 = Serve.Client.await c 2 in
  (match r2.P.status with
   | P.Done -> ()
   | s -> Alcotest.failf "queued job failed: %s" (P.status_string s));
  Serve.Client.close c

let test_shutdown_drains () =
  let path = temp_socket () in
  let server =
    Serve.Server.start
      { Serve.Server.default_config with socket_path = Some path }
  in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  Serve.Frame.write sock
    (J.to_string
       (P.request_to_json (P.request ~id:21 (P.Sleep { seconds = 0.3 }))));
  let next () =
    match Serve.Frame.read sock with
    | None -> Alcotest.fail "server closed the connection"
    | Some payload ->
      (match Result.bind (J.parse payload) P.message_of_json with
       | Ok m -> m
       | Error m -> Alcotest.failf "bad frame: %s" m)
  in
  (* the ack says the job is admitted; only then is it in flight *)
  let rec await_ack () =
    match next () with
    | P.Event (P.Ack { rid = 21; _ }) -> ()
    | P.Event _ -> await_ack ()
    | P.Final r -> Alcotest.failf "final before ack: %s" (P.status_string r.P.status)
  in
  await_ack ();
  (* stop() blocks until the admitted job has answered *)
  Serve.Server.stop server;
  Alcotest.(check int) "the in-flight job completed" 1
    (Serve.Server.jobs_done server);
  let rec final () =
    match next () with P.Final r -> r | P.Event _ -> final ()
  in
  let r = final () in
  Alcotest.(check int) "final for the drained job" 21 r.P.rid;
  (match r.P.status with
   | P.Done -> ()
   | s -> Alcotest.failf "drained job failed: %s" (P.status_string s));
  Unix.close sock;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* --- context-local execution flags ----------------------------------------- *)

(* The four pairwise-conflicting switch combinations: cache on/off x
   pool width 1/2. *)
let conflict_combos = [ (true, 1); (false, 1); (true, 2); (false, 2) ]

let prop_conflicting_ctx_identity =
  QCheck.Test.make
    ~name:
      "4 concurrent jobs with conflicting ctx flags are bit-identical to \
       their solo runs"
    ~count:3
    QCheck.(make Gen.(int_bound 1000))
    (fun base_seed ->
      let reqs =
        List.mapi
          (fun k (cache, jobs) ->
            P.request ~id:(100 + k) ~cache ~jobs
              (P.Mc { n = 2; seed = base_seed + k }))
          conflict_combos
      in
      (* solo reference: each request executed alone, sequentially *)
      let solo = List.map (fun r -> P.canonical (Serve.Api.execute r)) reqs in
      (* the solo runs filled the result memo: empty it so the cache-on
         served jobs compute concurrently instead of looking up *)
      Cache.Memo.clear_all ();
      let served = Array.make (List.length reqs) "" in
      with_server ~config:{ Serve.Server.default_config with executors = 4 }
      @@ fun _server path ->
      let threads =
        List.mapi
          (fun k req ->
            Thread.create
              (fun () ->
                let c = Serve.Client.connect path in
                served.(k) <- P.canonical (Serve.Client.call c req);
                Serve.Client.close c)
              ())
          reqs
      in
      List.iter Thread.join threads;
      List.for_all2 String.equal solo (Array.to_list served))

let test_scope_restores_nothing_global () =
  (* a scope with every switch overridden must leave the process globals
     untouched: other domains see them unchanged mid-scope, and the
     binding domain sees them again after exit *)
  Cache.Config.set_enabled true;
  Obs.Config.set_enabled false;
  let globals_elsewhere () =
    Domain.join
      (Domain.spawn (fun () -> (Cache.Config.enabled (), Obs.Config.enabled ())))
  in
  let ctx = Exec.Ctx.make ~cache:false ~telemetry:true proc in
  (match
     Exec.Ctx.scope (Some ctx) (fun () ->
         Alcotest.(check bool) "cache off inside the scope" false
           (Cache.Config.enabled ());
         Alcotest.(check bool) "telemetry on inside the scope" true
           (Obs.Config.enabled ());
         let c, o = globals_elsewhere () in
         Alcotest.(check bool) "other domains: cache global intact" true c;
         Alcotest.(check bool) "other domains: telemetry global intact" false
           o)
   with
   | Ok () -> ()
   | Error e -> raise e);
  Alcotest.(check bool) "cache global restored" true (Cache.Config.enabled ());
  Alcotest.(check bool) "telemetry global restored" false
    (Obs.Config.enabled ())

(* --- cancellation ----------------------------------------------------------- *)

let test_cancel_running () =
  with_server @@ fun _server path ->
  let c = Serve.Client.connect path in
  let t0 = Obs.Clock.monotonic_s () in
  Serve.Client.submit c (P.request ~id:31 (P.Sleep { seconds = 2.0 }));
  Thread.delay 0.1;
  Serve.Client.submit c (P.request ~id:32 (P.Cancel { target = 31 }));
  (* the acknowledgement overtakes the cancelled job's final *)
  let ack = Serve.Client.await c 32 in
  (match ack.P.status with
   | P.Done ->
     Alcotest.(check string) "ack says cancelled"
       {|{"target":31,"cancelled":true}|}
       (J.to_string ack.P.payload)
   | s -> Alcotest.failf "cancel ack gave %s" (P.status_string s));
  let r = Serve.Client.await c 31 in
  Serve.Client.close c;
  (match r.P.status with
   | P.Cancelled -> ()
   | s -> Alcotest.failf "expected cancelled, got %s" (P.status_string s));
  let elapsed = Obs.Clock.monotonic_s () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "aborted the 2 s sleep early (%.2f s)" elapsed)
    true (elapsed < 1.0)

let test_cancel_queued () =
  (* one executor: the target stays queued behind the sleep, so it is
     answered [cancelled] at pop without ever executing *)
  with_server ~config:{ Serve.Server.default_config with executors = 1 }
  @@ fun _server path ->
  let c = Serve.Client.connect path in
  Serve.Client.submit c (P.request ~id:41 (P.Sleep { seconds = 0.4 }));
  Thread.delay 0.1;
  Serve.Client.submit c (P.request ~id:42 (P.Mc { n = 4; seed = 3 }));
  Serve.Client.submit c (P.request ~id:43 (P.Cancel { target = 42 }));
  let ack = Serve.Client.await c 43 in
  (match ack.P.status with
   | P.Done ->
     Alcotest.(check string) "ack says cancelled"
       {|{"target":42,"cancelled":true}|}
       (J.to_string ack.P.payload)
   | s -> Alcotest.failf "cancel ack gave %s" (P.status_string s));
  (* finals arrive in executor order on one executor: the running job
     41 answers first, the cancelled 42 right after it ([await]
     discards other ids, so collect in arrival order) *)
  let r41 = Serve.Client.await c 41 in
  (match r41.P.status with
   | P.Done -> ()
   | s -> Alcotest.failf "unrelated job gave %s" (P.status_string s));
  let r42 = Serve.Client.await c 42 in
  (match r42.P.status with
   | P.Cancelled -> ()
   | s -> Alcotest.failf "queued target gave %s" (P.status_string s));
  Serve.Client.close c

let test_cancel_unknown_target () =
  with_server @@ fun _server path ->
  let c = Serve.Client.connect path in
  let ack = Serve.Client.call c (P.request ~id:51 (P.Cancel { target = 999 })) in
  Serve.Client.close c;
  match ack.P.status with
  | P.Done ->
    Alcotest.(check string) "ack says not found"
      {|{"target":999,"cancelled":false}|}
      (J.to_string ack.P.payload)
  | s -> Alcotest.failf "cancel of unknown target gave %s" (P.status_string s)

(* --- multi-executor scheduling ---------------------------------------------- *)

let test_executors_overlap () =
  (* two 0.3 s sleeps from two clients must overlap on two executors *)
  with_server ~config:{ Serve.Server.default_config with executors = 2 }
  @@ fun server path ->
  Alcotest.(check int) "clamped executor count" 2 (Serve.Server.executors server);
  let t0 = Obs.Clock.monotonic_s () in
  let threads =
    List.init 2 (fun k ->
      Thread.create
        (fun () ->
          let c = Serve.Client.connect path in
          let r =
            Serve.Client.call c
              (P.request ~id:(60 + k) (P.Sleep { seconds = 0.3 }))
          in
          Serve.Client.close c;
          match r.P.status with
          | P.Done -> ()
          | s -> Alcotest.failf "sleep failed: %s" (P.status_string s))
        ())
  in
  List.iter Thread.join threads;
  let wall = Obs.Clock.monotonic_s () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "two 0.3 s sleeps overlapped (wall %.2f s)" wall)
    true
    (wall < 0.55);
  let stats = Serve.Server.executor_stats server in
  Alcotest.(check int) "one stats row per executor" 2 (List.length stats);
  Alcotest.(check int) "both jobs accounted" 2
    (List.fold_left (fun acc s -> acc + s.Serve.Server.ex_jobs) 0 stats)

let test_round_robin_fairness () =
  (* a client pipelining a deep backlog must not starve another client's
     single request: round-robin admission serves B after at most one of
     A's queued jobs *)
  with_server ~config:{ Serve.Server.default_config with executors = 1 }
  @@ fun _server path ->
  let a = Serve.Client.connect path in
  for i = 1 to 8 do
    Serve.Client.submit a (P.request ~id:i (P.Sleep { seconds = 0.05 }))
  done;
  Thread.delay 0.02;
  let b = Serve.Client.connect path in
  let t0 = Obs.Clock.monotonic_s () in
  let r = Serve.Client.call b (P.request ~id:100 P.Ping) in
  let b_wait = Obs.Clock.monotonic_s () -. t0 in
  Serve.Client.close b;
  (match r.P.status with
   | P.Done -> ()
   | s -> Alcotest.failf "B's ping failed: %s" (P.status_string s));
  (* 8 x 0.05 s backlog; fairness bounds B's wait by ~2 slices, not the
     whole backlog *)
  Alcotest.(check bool)
    (Printf.sprintf "B served ahead of A's backlog (%.2f s)" b_wait)
    true (b_wait < 0.25);
  for i = 1 to 8 do
    match (Serve.Client.await a i).P.status with
    | P.Done -> ()
    | s -> Alcotest.failf "A's job %d failed: %s" i (P.status_string s)
  done;
  Serve.Client.close a

(* --- the request-boundary result memo ---------------------------------------- *)

let result_memo () =
  List.find
    (fun st -> st.Cache.Memo.name = "serve.result")
    (Cache.Memo.registry ())

(* hits and misses of serve.result over [f ()] *)
let memo_delta f =
  let before = result_memo () in
  let r = f () in
  let after = result_memo () in
  (r, after.Cache.Memo.hits - before.Cache.Memo.hits,
   after.Cache.Memo.misses - before.Cache.Memo.misses)

let memo_workload = P.Mc { n = 3; seed = 11 }

let test_result_memo_hits () =
  Cache.Config.with_enabled true @@ fun () ->
  Cache.Memo.clear_all ();
  let cold, _, misses = memo_delta (fun () -> Serve.Api.execute (P.request ~id:1 memo_workload)) in
  Alcotest.(check int) "the cold job misses" 1 misses;
  (match cold.P.status with
   | P.Done -> ()
   | s -> Alcotest.failf "cold job gave %s" (P.status_string s));
  let uncached, hits, misses =
    memo_delta (fun () ->
      Serve.Api.execute (P.request ~id:1 ~cache:false memo_workload))
  in
  Alcotest.(check int) "cache:false bypasses the memo" 0 (hits + misses);
  Alcotest.(check string) "cache:false = cold bytes" (P.canonical cold)
    (P.canonical uncached);
  List.iter
    (fun (label, req) ->
      let r, hits, misses = memo_delta (fun () -> Serve.Api.execute req) in
      Alcotest.(check (pair int int)) (label ^ ": one hit, no miss") (1, 0)
        (hits, misses);
      Alcotest.(check string) (label ^ ": the cold bytes") (P.canonical cold)
        (P.canonical { r with P.rid = cold.P.rid }))
    [
      ("another id", P.request ~id:2 memo_workload);
      ("another jobs", P.request ~id:1 ~jobs:2 memo_workload);
      ("telemetry on", P.request ~id:1 ~telemetry:true memo_workload);
    ]

let test_result_memo_misses () =
  Cache.Config.with_enabled true @@ fun () ->
  List.iter
    (fun (label, req) ->
      let _, hits, misses = memo_delta (fun () -> Serve.Api.execute req) in
      Alcotest.(check (pair int int)) (label ^ " misses") (0, 1) (hits, misses))
    [
      ("a different Monte Carlo seed", P.request (P.Mc { n = 3; seed = 12 }));
      ("a different ctx seed", P.request ~seed:7 memo_workload);
      ("a different spec",
       P.request ~spec:{ spec with Comdiac.Spec.gbw = 60e6 } memo_workload);
    ]

let test_result_memo_deadline () =
  (* a would-be hit still answers Timeout on an expired deadline and on a
     set cancellation token (which the server reports as Cancelled) *)
  Cache.Config.with_enabled true @@ fun () ->
  ignore (Serve.Api.execute (P.request memo_workload));
  let expect_timeout label f =
    let r, hits, _ = memo_delta f in
    Alcotest.(check int) (label ^ ": looked up") 1 hits;
    match r.P.status with
    | P.Failed (Sim.Sim_error.Timeout _) -> ()
    | s -> Alcotest.failf "%s: expected timeout, got %s" label (P.status_string s)
  in
  expect_timeout "timeout_s 0" (fun () ->
    Serve.Api.execute (P.request ~timeout_s:0.0 memo_workload));
  expect_timeout "cancelled" (fun () ->
    Serve.Api.execute ~cancel:(Atomic.make true) (P.request memo_workload))

let test_result_memo_cancel_queued () =
  (* a queued job whose answer is in the memo is still answered
     [cancelled] when a cancel reaches it first *)
  Cache.Config.with_enabled true @@ fun () ->
  ignore (Serve.Api.execute (P.request memo_workload));
  with_server ~config:{ Serve.Server.default_config with executors = 1 }
  @@ fun _server path ->
  let c = Serve.Client.connect path in
  Serve.Client.submit c (P.request ~id:61 (P.Sleep { seconds = 0.3 }));
  Thread.delay 0.1;
  Serve.Client.submit c (P.request ~id:62 memo_workload);
  Serve.Client.submit c (P.request ~id:63 (P.Cancel { target = 62 }));
  ignore (Serve.Client.await c 63);
  ignore (Serve.Client.await c 61);
  let r = Serve.Client.await c 62 in
  Serve.Client.close c;
  match r.P.status with
  | P.Cancelled -> ()
  | s -> Alcotest.failf "queued hit gave %s" (P.status_string s)

let test_result_memo_skips_failures () =
  (* the 45 MHz sizing hole fails: both runs compute, nothing is stored *)
  Cache.Config.with_enabled true @@ fun () ->
  let req =
    P.request
      ~spec:{ spec with Comdiac.Spec.gbw = 45e6; cload = 3e-12 }
      (P.Synth { case = Core.Flow.Case2 })
  in
  let entries () = (result_memo ()).Cache.Memo.entries in
  let stored = entries () in
  for _ = 1 to 2 do
    let r, hits, misses = memo_delta (fun () -> Serve.Api.execute req) in
    (match r.P.status with
     | P.Failed (Sim.Sim_error.No_convergence _) -> ()
     | s -> Alcotest.failf "expected no_convergence, got %s" (P.status_string s));
    Alcotest.(check (pair int int)) "computed, not looked up" (0, 1)
      (hits, misses)
  done;
  Alcotest.(check int) "no entry stored" stored (entries ())

let suite =
  ( "serve",
    [
      case "request decode errors" test_request_decode_errors;
      case "response message round-trip" test_response_message_roundtrip;
      case "frame round-trip" test_frame_roundtrip;
      case "frame oversized" test_frame_oversized;
      case "frame truncated" test_frame_truncated;
      case "api ping" test_api_ping;
      case "api bad inputs" test_api_bad_inputs;
      case "api cooperative timeout" test_api_timeout;
      case "_result variants" test_result_variants;
      case "served equals direct (4 concurrent clients)"
        test_served_equals_direct;
      case "optimize: served equals the one-shot CLI result"
        test_optimize_served_equals_direct;
      case "optimize: cancellable at candidate boundaries"
        test_optimize_cancel;
      case "event order ack/started/telemetry" test_served_events_in_order;
      case "malformed request keeps the connection"
        test_served_malformed_keeps_connection;
      case "oversized frame closes the connection"
        test_served_oversized_closes_connection;
      case "queue-full submissions rejected as overloaded"
        test_served_overloaded;
      case "graceful shutdown drains in-flight jobs" test_shutdown_drains;
      case "scope exit restores nothing global"
        test_scope_restores_nothing_global;
      case "cancel aborts a running job" test_cancel_running;
      case "cancel answers a queued job without executing it"
        test_cancel_queued;
      case "cancel of an unknown target acks cancelled:false"
        test_cancel_unknown_target;
      case "two executors overlap sleeps" test_executors_overlap;
      case "round-robin admission keeps clients fair"
        test_round_robin_fairness;
    ]
    @ qcheck_cases
        [
          prop_float_roundtrip; prop_request_roundtrip;
          prop_conflicting_ctx_identity;
        ]
    @ [
        case "45 MHz sizing hole served as a typed no_convergence"
          test_served_sizing_hole_typed;
        case "ctx.jobs must be positive; ctx.chunk is ignored"
          test_ctx_decoding;
        case "result memo: id, jobs and telemetry do not key it"
          test_result_memo_hits;
        case "result memo: another seed or spec misses"
          test_result_memo_misses;
        case "result memo: a hit honours timeout and cancel"
          test_result_memo_deadline;
        case "result memo: a cancelled queued hit answers cancelled"
          test_result_memo_cancel_queued;
        case "result memo: no_convergence is not stored"
          test_result_memo_skips_failures;
      ] )
