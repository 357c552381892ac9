(* The losac executable's argument boundary: inputs the wire refuses
   with invalid_request must be usage errors (cmdliner's exit 124), not
   an uncaught exception (125) or a silently clamped success. *)

open Helpers

let usage_error = 124

let losac =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "losac.exe")

let exit_code args =
  if not (Sys.file_exists losac) then
    Alcotest.failf "%s not built (run dune build first)" losac;
  (* no LOSAC_* settings leak in: other suites leave LOSAC_SEED="" behind,
     which the CLI itself refuses *)
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"LOSAC_" kv))
         (Array.to_list (Unix.environment ())))
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env losac (Array.of_list (losac :: args)) env
      Unix.stdin null null
  in
  Unix.close null;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED n -> n
  | _ -> Alcotest.failf "losac %s was killed" (String.concat " " args)

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

let suite =
  ( "cli",
    [
      case "bad spec and count flags are usage errors"
        test_usage_errors;
      case "stats --repeat 0 stays valid" test_repeat_zero_valid;
    ] )
