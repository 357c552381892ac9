module El = Netlist.Element

type sample = {
  offset : float;
  dc_gain_db : float;
  gbw : float;
}

type stats = {
  n : int;
  mean : float;
  std : float;
  minimum : float;
  maximum : float;
}

type result = {
  samples : sample list;
  offset_stats : stats;
  gain_stats : stats;
  gbw_stats : stats;
  predicted_offset_sigma : float;
}

(* Single-pass Welford accumulation; numerically stable and one traversal
   for all four summaries.  Variance is the unbiased (n-1) sample
   estimator, as appropriate for Monte Carlo draws. *)
let stats_of values =
  assert (values <> []);
  let n = ref 0 in
  let mean = ref 0.0 in
  let m2 = ref 0.0 in
  let minimum = ref infinity in
  let maximum = ref neg_infinity in
  List.iter
    (fun v ->
      Stdlib.incr n;
      let d = v -. !mean in
      mean := !mean +. (d /. float_of_int !n);
      m2 := !m2 +. (d *. (v -. !mean));
      if v < !minimum then minimum := v;
      if v > !maximum then maximum := v)
    values;
  let var = if !n > 1 then !m2 /. float_of_int (!n - 1) else 0.0 in
  {
    n = !n;
    mean = !mean;
    std = sqrt (Float.max 0.0 var);
    minimum = !minimum;
    maximum = !maximum;
  }

(* Box-Muller over an explicit SplitMix64 stream. *)
let gaussian st =
  let u1 = Float.max 1e-12 (Par.Splitmix.float st) in
  let u2 = Par.Splitmix.float st in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let perturb proc st amp =
  Amp.map_devices
    (fun dev ->
      let sigma_vt, sigma_beta = Device.Mos.mismatch_sigma proc dev in
      Device.Mos.with_mismatch
        ~vto_shift:(sigma_vt *. gaussian st)
        ~beta_scale:(1.0 +. (sigma_beta *. gaussian st))
        dev)
    amp

let sample_amp ~proc ~seed index amp =
  perturb proc (Par.Splitmix.create ~stream:index seed) amp

let input_pair_sigma proc amp =
  (* the device whose gate is the non-inverting input *)
  let input_dev =
    List.find_map
      (fun e ->
        match e with
        | El.Mos { dev; g = "inp"; _ } -> Some dev
        | El.Mos _ | El.Resistor _ | El.Capacitor _ | El.Isource _
        | El.Vsource _ -> None)
      amp.Amp.devices
  in
  match input_dev with
  | Some dev ->
    let sigma_vt, _ = Device.Mos.mismatch_sigma proc dev in
    sqrt 2.0 *. sigma_vt
  | None -> 0.0

(* Coarse per-sample memo: sample [i] is a pure function of (process,
   model kind, spec, run seed, index, nominal amp), so a warm re-run of
   the same Monte Carlo workload — the common case when comparing
   analyses or benchmarking — hits here and skips the whole perturb +
   testbench + measure chain.  [None] (non-converged) is cached too. *)
let sample_memo :
    ( Technology.Process.t * Device.Model.kind * Spec.t * int * int * Amp.t,
      sample option )
    Cache.Memo.t =
  Cache.Memo.create ~name:"comdiac.mc_sample" ~shards:8 ~capacity:8192 ()

let run ?seed ?(n = 50) ?ctx ?jobs ?proc ~kind ~spec amp =
  assert (n > 0);
  let seed = Exec.Ctx.seed ?override:seed ctx in
  let proc = Exec.Ctx.proc ?override:proc ctx in
  let jobs = Exec.Ctx.jobs ?override:jobs ctx in
  let chunk = Exec.Ctx.chunk ctx in
  Exec.Ctx.run ctx @@ fun () ->
  (* Sample [i] draws from SplitMix64 stream [(seed, i)], so its value
     depends only on the run seed and its own index — never on which
     domain computes it or in what order.  The parallel run is therefore
     bit-identical to the sequential one. *)
  let one index =
    (* cooperative timeout: a served job's deadline is honoured between
       samples, never mid-solve *)
    Exec.Ctx.check_deadline ~analysis:"montecarlo" ctx;
    Cache.Memo.find_or_compute sample_memo
      (proc, kind, spec, seed, index, amp)
      (fun () ->
        match
          Testbench.make ~proc ~kind ~spec (sample_amp ~proc ~seed index amp)
        with
        | tb ->
          Some
            {
              offset = Testbench.offset tb;
              dc_gain_db = Sim.Measure.db (Testbench.dc_gain tb);
              gbw =
                (match Testbench.gbw tb with Some f -> f | None -> Float.nan);
            }
        | exception Phys.Numerics.No_convergence _ -> None)
  in
  let samples =
    Obs.Trace.with_span ~cat:"comdiac"
      ~args:[ ("n", Obs.Trace.Int n) ]
      "montecarlo.samples"
      (fun () ->
        List.filter_map Fun.id
          (* a sample is one small-signal solve: cheap — let the pool
             batch many per chunk *)
          (Par.Pool.map ?jobs ?chunk ~cost:Par.Pool.Cheap one
             (List.init n Fun.id)))
  in
  if samples = [] then failwith "Montecarlo.run: no sample converged";
  let finite = List.filter (fun v -> not (Float.is_nan v)) in
  {
    samples;
    offset_stats = stats_of (List.map (fun s -> s.offset) samples);
    gain_stats = stats_of (List.map (fun s -> s.dc_gain_db) samples);
    gbw_stats = stats_of (finite (List.map (fun s -> s.gbw) samples));
    predicted_offset_sigma = input_pair_sigma proc amp;
  }

let run_result ?seed ?n ?ctx ?jobs ?proc ~kind ~spec amp =
  match run ?seed ?n ?ctx ?jobs ?proc ~kind ~spec amp with
  | r -> Ok r
  | exception e ->
    (match Sim.Sim_error.of_exn ~analysis:"montecarlo" e with
     | Some err -> Error err
     | None -> raise e)

let pp fmt r =
  let p name unit scale (s : stats) =
    Format.fprintf fmt
      "  %-8s mean %10.3f %-4s sigma %9.3f  range [%.3f, %.3f] (n=%d)@." name
      (s.mean /. scale) unit (s.std /. scale) (s.minimum /. scale)
      (s.maximum /. scale) s.n
  in
  Format.fprintf fmt "@[<v>monte carlo:@,";
  p "offset" "mV" 1e-3 r.offset_stats;
  p "gain" "dB" 1.0 r.gain_stats;
  p "gbw" "MHz" 1e6 r.gbw_stats;
  Format.fprintf fmt "  input-pair Pelgrom prediction: sigma_vos >= %.3f mV@]"
    (r.predicted_offset_sigma /. 1e-3)
