(* The losac executable's boundaries: inputs the wire refuses with
   invalid_request must be usage errors (cmdliner's exit 124), not an
   uncaught exception (125) or a silently clamped success; LOSAC_SEED
   resolves below --seed; a job with no daemon to talk to fails with a
   one-line error and exit 1. *)

open Helpers

let usage_error = 124

let losac =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "losac.exe")

(* Run losac with an explicit environment: the test process's own minus
   every LOSAC_* setting (CI exports LOSAC_JOBS/LOSAC_CACHE) plus [env].
   Settings reach the child only this way; the test process never calls
   putenv.  Returns the exit code, stdout and stderr. *)
let run ?(env = []) args =
  if not (Sys.file_exists losac) then
    Alcotest.failf "%s not built (run dune build first)" losac;
  let inherited =
    List.filter
      (fun kv -> not (String.starts_with ~prefix:"LOSAC_" kv))
      (Array.to_list (Unix.environment ()))
  in
  let env =
    Array.of_list (inherited @ List.map (fun (k, v) -> k ^ "=" ^ v) env)
  in
  let err_file = Filename.temp_file "losac-cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err_file) @@ fun () ->
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let pid =
    Unix.create_process_env losac (Array.of_list (losac :: args)) env
      Unix.stdin out_w err
  in
  Unix.close err;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let stdout = In_channel.input_all ic in
  In_channel.close ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED n -> (n, stdout, In_channel.with_open_text err_file In_channel.input_all)
  | _ -> Alcotest.failf "losac %s was killed" (String.concat " " args)

let exit_code ?env args =
  let code, _, _ = run ?env args in
  code

let test_usage_errors () =
  List.iter
    (fun args ->
      Alcotest.(check int)
        (String.concat " " args ^ " is a usage error")
        usage_error (exit_code args))
    [
      [ "synth"; "--case"; "1"; "--gbw"; "0"; "--format"; "json" ];
      [ "synth"; "--gbw"; "nan" ];
      [ "synth"; "--cl"; "0" ];
      [ "size"; "--pm"; "95" ];
      [ "verify"; "--samples"; "0" ];
      [ "stats"; "--samples"; "0" ];
      [ "optimize"; "--starts"; "0" ];
      [ "optimize"; "--budget"; "0" ];
      [ "job"; "mc"; "--count"; "0" ];
      [ "job"; "verify"; "--samples"; "0" ];
    ]

let test_repeat_zero_valid () =
  Alcotest.(check int) "stats --repeat 0 runs" 0
    (exit_code [ "stats"; "--repeat"; "0"; "--format"; "json" ])

(* Seed resolution at the CLI: --seed beats LOSAC_SEED beats the
   default 42, and an empty LOSAC_SEED is a usage error.  The resolved
   seed is echoed in the verify document. *)
let test_seed_env () =
  let seed_of ?env extra =
    let args = [ "verify"; "--samples"; "2"; "--format"; "json" ] @ extra in
    match run ?env args with
    | 0, out, _ ->
      let json =
        match Obs.Json.parse out with
        | Ok json -> json
        | Error msg -> Alcotest.failf "unparseable verify output: %s" msg
      in
      (match
         Option.bind
           (Option.bind (Obs.Json.member "result" json)
              (Obs.Json.member "montecarlo"))
           (Obs.Json.member "seed")
       with
       | Some (Obs.Json.Num s) -> int_of_float s
       | _ -> Alcotest.fail "no result.montecarlo.seed")
    | n, _, _ -> Alcotest.failf "verify exited %d" n
  in
  Alcotest.(check int) "default seed" 42 (seed_of []);
  Alcotest.(check int) "LOSAC_SEED when no --seed" 13
    (seed_of ~env:[ ("LOSAC_SEED", "13") ] []);
  Alcotest.(check int) "--seed beats LOSAC_SEED" 5
    (seed_of ~env:[ ("LOSAC_SEED", "13") ] [ "--seed"; "5" ]);
  Alcotest.(check int) "empty LOSAC_SEED is a usage error" usage_error
    (exit_code ~env:[ ("LOSAC_SEED", "") ]
       [ "verify"; "--samples"; "2"; "--format"; "json" ])

(* A client pointed at an address where no daemon listens gets a
   one-line error and exit 1, not an uncaught Unix_error (exit 125). *)
let test_job_no_daemon () =
  let check_unreachable label args ~target =
    let code, _, err = run ([ "job"; "ping" ] @ args) in
    Alcotest.(check int) (label ^ ": exit 1") 1 code;
    Alcotest.(check int) (label ^ ": one line") 1
      (List.length (String.split_on_char '\n' (String.trim err)));
    Alcotest.(check bool) (label ^ ": names " ^ target) true
      (String.starts_with ~prefix:("losac: cannot connect to " ^ target ^ ": ") err)
  in
  let sock = "/nonexistent/losac.sock" in
  check_unreachable "missing socket" [ "--socket"; sock ] ~target:sock;
  let port =
    (* a port that was just free: bound, read back, closed *)
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> assert false
    in
    Unix.close fd;
    port
  in
  let addr = Printf.sprintf "127.0.0.1:%d" port in
  check_unreachable "refused tcp port" [ "--tcp"; addr ] ~target:addr

(* The 45 MHz sizing hole fails as a typed non-convergence, not an
   internal error. *)
let test_sizing_hole_typed () =
  let code, out, _ =
    run [ "synth"; "--case"; "2"; "--gbw"; "45"; "--cl"; "3"; "--format"; "json" ]
  in
  Alcotest.(check int) "exit 1" 1 code;
  let member k j = Option.bind j (Obs.Json.member k) in
  let field k =
    match member k (member "error" (Result.to_option (Obs.Json.parse out))) with
    | Some (Obs.Json.Str s) -> s
    | _ -> Alcotest.failf "no error.%s in %s" k out
  in
  Alcotest.(check string) "error kind" "no_convergence" (field "kind");
  Alcotest.(check string) "analysis" "flow" (field "analysis")

let suite =
  ( "cli",
    [
      case "bad spec and count flags are usage errors"
        test_usage_errors;
      case "stats --repeat 0 stays valid" test_repeat_zero_valid;
      case "seed: --seed > LOSAC_SEED > default" test_seed_env;
      case "job without a daemon exits 1" test_job_no_daemon;
      case "45 MHz sizing hole is a typed no_convergence"
        test_sizing_hole_typed;
    ] )
