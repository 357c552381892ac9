(* Measurement plumbing shared by every workload: the reference loop that
   speed-normalises timings, process CPU and memory readings, medians,
   and the result line. *)

let now = Obs.Clock.monotonic_s

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list (List.sort Float.compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- speed normalisation ---------------------------------------------- *)

(* A fixed, allocation-free integer loop (xorshift plus an accumulator,
   all in registers).  Its time on a given machine moves only with the
   speed the CPU is granted at that moment, so
   [time * nominal / measured loop time] is a time at reference speed. *)
let ref_iters = 200_000
let ref_reps = 5

(* Median time of [ref_loop ref_iters] on the reference machine
   (2-vCPU x86-64 container, OCaml 5.1.1, dev profile); see README. *)
let ref_nominal_s = 0.000940

let ref_sink = ref 0

let ref_loop n =
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0 in
  for i = 1 to n do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := !acc + (!x land 0xff) + i
  done;
  !acc

let ref_once () =
  let t0 = now () in
  ref_sink := !ref_sink + ref_loop ref_iters;
  now () -. t0

(* The median of [ref_reps] short loops, so one preempted loop does not
   skew the reading. *)
let ref_time () = median (List.init ref_reps (fun _ -> ref_once ()))

(* --- process readings -------------------------------------------------- *)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

(* utime + stime of another process, from /proc/<pid>/stat, in seconds
   (the kernel's USER_HZ is 100 on Linux). *)
let pid_cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub s (String.rindex s ')' + 2)
      (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  (* fields 14 and 15 of stat; [after] starts at field 3 *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

(* Peak resident set (VmHWM) in MB of [pid], or of this process. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file path))
  in
  let kb =
    Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" Fun.id
  in
  kb /. 1024.0

(* Machine-wide CPU seconds since boot, from the first line of
   /proc/stat (USER_HZ is 100): what the guest ran (user, nice, system,
   irq, softirq) and what the hypervisor took from its runnable vCPUs
   (steal).  Zero where the file is missing. *)
let cpu_accounts () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | line :: _ ->
    let f =
      Array.of_list
        (List.filter_map float_of_string_opt (String.split_on_char ' ' line))
    in
    ((f.(0) +. f.(1) +. f.(2) +. f.(5) +. f.(6)) /. 100.0, f.(7) /. 100.0)
  | [] -> (0.0, 0.0)
  | exception _ -> (0.0, 0.0)

(* --- timed stretches --------------------------------------------------- *)

type stretch = {
  raw_s : float;  (** wall seconds *)
  cpu_s : float;  (** CPU seconds of the measured process *)
}

(* Every reference reading of the run.  Times are normalised with their
   median when printed: one factor per run follows the machine's speed
   from run to run, while a factor per stretch would add the reading's
   own noise to every op (on the reference machine the op time of one
   and the same op and the loop time around it did not move together). *)
let readings = ref []

(* CPU seconds the guest ran, and the hypervisor stole, over every
   stretch of the run. *)
let ran = ref 0.0
let stolen = ref 0.0

(* Time at reference speed: the reference loop gives the speed of a
   vCPU while it runs; its readings are medians of short loops, so they
   miss the time the hypervisor takes whole vCPUs away.  That share,
   stolen / (ran + stolen), is taken off wall times as well; CPU time
   does not count stolen time to begin with. *)
let speed_factor ?(wall = true) () =
  let avail = if !ran +. !stolen > 0.0 then !ran /. (!ran +. !stolen) else 1.0 in
  ref_nominal_s /. median !readings *. (if wall then avail else 1.0)

(* Time [f] bracketed by the reference loop; [cpu] reads the CPU clock of
   the process doing the work (this one by default).  The heap is
   compacted first, so every stretch starts from the same GC state, as a
   fresh process would. *)
let stretch ?(cpu = self_cpu_s) f =
  Gc.compact ();
  let r0 = ref_time () in
  let u0, s0 = cpu_accounts () in
  let c0 = cpu () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  let c1 = cpu () in
  let u1, s1 = cpu_accounts () in
  let r1 = ref_time () in
  readings := r0 :: r1 :: !readings;
  ran := !ran +. (u1 -. u0);
  stolen := !stolen +. (s1 -. s0);
  (v, { raw_s = t1 -. t0; cpu_s = c1 -. c0 })

(* --- statistics -------------------------------------------------------- *)

let mad xs =
  let m = median xs in
  median (List.map (fun x -> Float.abs (x -. m)) xs)

let sum = List.fold_left ( +. ) 0.0

(* --- checks ------------------------------------------------------------ *)

(* Every failed output check is printed to stderr and clears [correct]. *)
let correct = ref true

let check name ok =
  if not ok then begin
    correct := false;
    Printf.eprintf "perfbench: check failed: %s\n%!" name
  end

(* --- output ------------------------------------------------------------ *)

let num v = Printf.sprintf "%.17g" v

(* Seconds at reference speed. *)
let normalise (name, unit, v) =
  let f = speed_factor ~wall:(name <> "cpu_s_per_op") () in
  match unit with
  | "s" -> (name, unit, v *. f)
  | "1/s" -> (name, unit, v /. f)
  | _ -> (name, unit, v)

let metrics_json metrics =
  String.concat ","
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (num v) unit)
       metrics)

(* The raw figures and the reference readings on one line, then the
   result object, normalised, as the last line of stdout.  [metrics] are
   raw. *)
let print_result ~attempted ~failed metrics =
  Printf.printf
    "{\"raw\":{%s},\"ref_nominal_s\":%s,\"ref_median_s\":%s,\
     \"ref_readings\":%d,\"ran_s\":%s,\"stolen_s\":%s}\n"
    (metrics_json metrics) (num ref_nominal_s) (num (median !readings))
    (List.length !readings) (num !ran) (num !stolen);
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    !correct attempted failed
    (metrics_json (List.map normalise metrics))

(* One ROADMAP losac.bench/2 record: layer rows with their share of op
   time, plus the traced run's coverage and tracing overhead. *)
let print_layers ~workload ~op_times ~layers ~overhead =
  let f = speed_factor () in
  let op_times = List.map (fun t -> t *. f) op_times in
  let layers = List.map (fun (l, c, s) -> (l, c, s *. f)) layers in
  let reps = List.length op_times in
  let op_total = sum op_times in
  let covered = sum (List.map (fun (_, _, s) -> s) layers) in
  let rows =
    String.concat ","
      (List.map
         (fun (layer, calls, self_s) ->
           Printf.sprintf
             "{\"layer\":%S,\"calls\":%d,\"self_s\":%s,\"frac\":%s}" layer
             calls (num (self_s /. float_of_int (max 1 reps)))
             (num (self_s /. op_total)))
         layers)
  in
  Printf.printf
    "{\"schema\":\"losac.bench/2\",\"workload\":%S,\"reps\":%d,\
     \"median_s\":%s,\"mad_s\":%s,\"layers\":[%s],\"coverage\":%s,\
     \"tracing_overhead\":%s}\n%!"
    workload reps (num (median op_times)) (num (mad op_times)) rows
    (num (covered /. op_total)) (num overhead);
  covered /. op_total
