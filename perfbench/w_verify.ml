(* verify: one op is what `losac verify --samples 200` computes — nominal
   sizing, Monte Carlo n=200 at a fresh seed, the rebiased corner and
   temperature sweep, PSRR and the common-mode range — with memos
   cleared first and the pool at 2 jobs. *)

open Common
module FC = Comdiac.Folded_cascode
module MC = Comdiac.Montecarlo
module Rob = Comdiac.Robustness

let samples = 200
let designs_per_round = 2

let ctx = Core.Ctx.make ~jobs:2 proc

type out = {
  mc : MC.result;
  rob : Rob.result;
  offset : float;  (** systematic offset of the nominal design *)
  psrr : float;
  cmr : float * float;
}

(* A traced run times each call the op makes. *)
type timer = { timed : 'a. string -> (unit -> 'a) -> 'a }

let op ~t:{ timed } ~seed spec =
  let design =
    timed "comdiac.size" (fun () ->
      FC.size ~proc ~kind ~spec ~parasitics:Comdiac.Parasitics.single_fold)
  in
  let amp = design.FC.amp in
  let mc = timed "comdiac.mc" (fun () -> MC.run ~seed ~n:samples ~ctx ~kind ~spec amp) in
  let rebias p = FC.rebias ~proc:p ~kind ~spec design in
  let rob = timed "comdiac.corners" (fun () -> Rob.run ~rebias ~ctx ~kind ~spec amp) in
  let tb = timed "sim.dc (bench)" (fun () -> Comdiac.Testbench.make ~proc ~kind ~spec amp) in
  let psrr = timed "sim.ac (psrr)" (fun () -> Comdiac.Testbench.psrr tb) in
  let cmr = timed "sim.dc (cm range)" (fun () -> Comdiac.Testbench.common_mode_range tb) in
  { mc; rob; offset = Comdiac.Testbench.offset tb; psrr; cmr }

let untimed = { timed = (fun _ f -> f ()) }

let gbw_at rob corner =
  List.find_map
    (fun (p : Rob.point) ->
      if p.Rob.corner = corner
         && Float.abs (p.Rob.temperature -. Technology.Corner.celsius 27.0) < 1e-9
      then Some p.Rob.gbw
      else None)
    rob.Rob.points

(* How far an op's mean offset lies from the nominal design's offset, in
   standard errors.  Mismatch is zero-mean, so the samples centre on the
   systematic offset (about -0.3 mV at 90-100 MHz and 5 pF, of the order
   of 4 sigma / sqrt 200 itself), and z is close to N(0, 1). *)
let offset_z o =
  let s = o.mc.MC.offset_stats in
  (s.MC.mean -. o.offset) /. (s.MC.std /. sqrt (float_of_int s.MC.n))

let check_op label o =
  Harness.check (label ^ ": every rebiased corner point is biased")
    (o.rob.Rob.all_biased
     && List.for_all (fun (p : Rob.point) -> p.Rob.biased) o.rob.Rob.points);
  let s = o.mc.MC.offset_stats in
  (* one op in a few thousand lies beyond 4 standard errors by chance,
     so each op is held to 6 and the run's ops together to 4 (in [run]) *)
  Harness.check (label ^ ": |mean offset - nominal offset| <= 6 sigma / sqrt n")
    (Float.abs (offset_z o) <= 6.0);
  Harness.check (label ^ ": offset sigma >= Pelgrom prediction")
    (s.MC.std >= o.mc.MC.predicted_offset_sigma);
  (match
     ( gbw_at o.rob Technology.Corner.SS,
       gbw_at o.rob Technology.Corner.TT,
       gbw_at o.rob Technology.Corner.FF )
   with
   | Some ss, Some tt, Some ff ->
     Harness.check (label ^ ": GBW orders SS < TT < FF at 27 C") (ss < tt && tt < ff)
   | _ -> Harness.check (label ^ ": SS/TT/FF points at 27 C present") false);
  Harness.check (label ^ ": PSRR and common-mode range are finite")
    (Float.is_finite o.psrr && fst o.cmr < snd o.cmr)

(* Bit-identity of the Monte Carlo samples at 1 and 2 jobs. *)
let same_samples a b =
  List.length a.MC.samples = List.length b.MC.samples
  && List.for_all2
       (fun (x : MC.sample) (y : MC.sample) ->
         Int64.equal (Int64.bits_of_float x.MC.offset) (Int64.bits_of_float y.MC.offset)
         && Int64.equal (Int64.bits_of_float x.MC.dc_gain_db)
              (Int64.bits_of_float y.MC.dc_gain_db)
         && Int64.equal (Int64.bits_of_float x.MC.gbw) (Int64.bits_of_float y.MC.gbw))
       a.MC.samples b.MC.samples

let run ~seed ~seconds ~trace =
  let t_start = Harness.now () in
  let rss = ref nan in
  let lat = ref [] and cpu = ref 0.0 and busy = ref 0.0 in
  let attempted = ref 0 and failed = ref 0 in
  let acc = Layers.create () in
  let round = ref 0 and nop = ref 0 in
  let zs = ref [] in
  while !round = 0 || Harness.now () -. t_start < seconds do
    List.iter
      (fun (label, spec) ->
        incr attempted;
        let mc_seed = Inputs.op_seed ~seed ~op:!nop in
        incr nop;
        Cache.Memo.clear_all ();
        let res =
          try Ok (Harness.stretch (fun () -> op ~t:untimed ~seed:mc_seed spec))
          with e -> Error e
        in
        (* the heap only grows over a run, so the peak is read after fixed
           work: the first op, at the paper spec *)
        if !nop = 1 then rss := Harness.peak_rss_mb ();
        match res with
        | Error e ->
          incr failed;
          Harness.check (label ^ ": verify raised " ^ Printexc.to_string e) false
        | Ok (o, st) ->
          lat := st.Harness.raw_s :: !lat;
          busy := !busy +. st.Harness.raw_s;
          cpu := !cpu +. st.Harness.cpu_s;
          check_op label o;
          zs := offset_z o :: !zs;
          if !nop = 1 then begin
            Cache.Memo.clear_all ();
            let one = MC.run ~seed:mc_seed ~n:samples ~jobs:1 ~proc ~kind ~spec
                (FC.size ~proc ~kind ~spec ~parasitics:Comdiac.Parasitics.single_fold).FC.amp
            in
            Harness.check (label ^ ": Monte Carlo identical at 1 and 2 jobs")
              (same_samples one o.mc)
          end;
          if trace then begin
            Cache.Memo.clear_all ();
            Layers.reset_telemetry ();
            let pool0 = Layers.pool () in
            let stages = ref [] in
            let timer =
              { timed =
                  (fun layer f ->
                    let t0 = Harness.now () in
                    let v = f () in
                    stages := (layer, Harness.now () -. t0) :: !stages;
                    v) }
            in
            let _, st2 =
              Obs.Config.with_enabled true (fun () ->
                Harness.stretch (fun () -> op ~t:timer ~seed:mc_seed spec))
            in
            Layers.op acc ~traced:st2.Harness.raw_s ~untraced:st.Harness.raw_s;
            List.iter (fun (layer, s) -> Layers.row acc layer s) !stages;
            let stage l = List.assoc l !stages in
            Layers.add acc "comdiac.size_s" (stage "comdiac.size");
            Layers.add acc "comdiac.mc_s" (stage "comdiac.mc");
            Layers.add acc "comdiac.corners_s" (stage "comdiac.corners");
            Layers.add acc "sim.dc_s" (Layers.cum_s "dcop.solve");
            Layers.add acc "sim.ac_s" (Layers.cum_s "measure.unity_gain_freq");
            Layers.add_program_counters acc ~pool0 ~wall_s:st2.Harness.raw_s
          end)
      (Inputs.specs ~seed ~tag:2 ~round:!round designs_per_round);
    incr round
  done;
  Harness.check "run: |sum of offset z| / sqrt ops <= 4"
    (Float.abs (Harness.sum !zs) /. sqrt (float_of_int (List.length !zs)) <= 4.0);
  if trace then
    Layers.finish acc ~workload:"verify" ~attempted:!attempted ~failed:!failed
  else
    Harness.print_result ~attempted:!attempted ~failed:!failed
      (end_to_end ~lat:!lat ~busy:!busy ~cpu:!cpu ~attempted:!attempted ~rss:!rss)
