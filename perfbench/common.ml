(* What every workload shares: the technology and model the CLI defaults
   to, the measured set-up time, and the end-to-end metric set. *)

let proc = Technology.Process.c06
let kind = Device.Model.Bsim_lite

(* Median set-up time, measured by [Perfbench] before the timed phase. *)
let setup_s = ref nan

(* The five end-to-end metrics, raw.  [lat] holds the times of the
   successful ops, [busy] the length of the timed stretches and [cpu] the
   CPU seconds the program spent in them. *)
let end_to_end ~lat ~busy ~cpu ~attempted ~rss =
  [ ("setup_s", "s", !setup_s);
    ("latency_p50_s", "s", Harness.median lat);
    ("ops_per_s", "1/s", float_of_int (List.length lat) /. busy);
    ("cpu_s_per_op", "s", cpu /. float_of_int attempted);
    ("peak_rss_mb", "MB", rss) ]
