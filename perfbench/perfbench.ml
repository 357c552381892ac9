(* perfbench — the end-to-end benchmark of losac.

     perfbench --workload synth|verify|optimize|serve --seed N
               --seconds S --trace 0|1 --losac PATH
   perfbench --calibrate

   Runs one workload for about S seconds and prints, as the last line of
   stdout, {"correct","attempted","failed","metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics (preceded by a
   losac.bench/2 layer record) with --trace 1.  See README.md. *)

let workloads = [ "synth"; "verify"; "optimize"; "serve" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload synth|verify|optimize|serve --seed N \
     --seconds S --trace 0|1 --losac PATH";
  exit 2

(* Set-up of an in-process workload: the domain pool it runs on and the
   LUT grids it interpolates from.  Returns the LUT build time. *)
let setup_in_process workload =
  (match workload with
   | "verify" | "optimize" ->
     ignore (Par.Pool.map ~jobs:2 ~cost:Par.Pool.Expensive Fun.id [ 1; 2 ])
   | _ -> ());
  if workload = "optimize" then
    (snd (Harness.stretch W_optimize.build_luts)).Harness.raw_s
  else 0.0

(* Time from spawning a fresh benchmark process to the end of its
   set-up: process start, library initialisation and [setup_in_process],
   what a user of the CLI waits for before the first op.  Timed in the
   run itself, the set-up is only the pool start (or, for synth, nothing
   at all), and the median of 11 pool starts moved between 0.48 and
   6.1 ms from one process to the next. *)
let probe_setup workload =
  let r, w = Unix.pipe ~cloexec:true () in
  let ic = Unix.in_channel_of_descr r in
  let (pid, line), st =
    Harness.stretch (fun () ->
      let pid =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--setup-probe"; workload |]
          Unix.stdin w Unix.stderr
      in
      Unix.close w;
      (pid, In_channel.input_line ic))
  in
  ignore (Unix.waitpid [] pid);
  close_in ic;
  if line <> Some "ready" then failwith "perfbench: set-up probe failed";
  st.Harness.raw_s

let setup_probes = 21

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = if args = [ "--calibrate" ] then [] else parse [] args in
  let get k = List.assoc_opt k opts in
  match get "setup-probe" with
  | _ when args = [ "--calibrate" ] ->
    (* the reference loop's median time on this machine *)
    let t = List.init 201 (fun _ -> Harness.ref_once ()) in
    Printf.printf "reference loop: median %.6f s, nominal %.6f s\n"
      (Harness.median t) Harness.ref_nominal_s
  | Some w ->
    ignore (setup_in_process w);
    print_endline "ready"
  | None ->
    let workload =
      match get "workload" with
      | Some w when List.mem w workloads -> w
      | _ -> usage ()
    in
    let int k =
      match Option.bind (get k) int_of_string_opt with
      | Some v -> v
      | None -> usage ()
    in
    let seed = int "seed" and seconds = float_of_int (int "seconds") in
    let trace =
      match get "trace" with Some "1" -> true | Some "0" -> false | _ -> usage ()
    in
    let losac = match get "losac" with Some p -> p | None -> usage () in
    if workload = "serve" then W_serve.run ~losac ~seed ~seconds ~trace
    else begin
      Common.setup_s :=
        Harness.median (List.init setup_probes (fun _ -> probe_setup workload));
      let lut_build_s = setup_in_process workload in
      match workload with
      | "synth" -> W_synth.run ~seed ~seconds ~trace
      | "verify" -> W_verify.run ~seed ~seconds ~trace
      | _ -> W_optimize.run ~seed ~seconds ~trace ~lut_build_s
    end
