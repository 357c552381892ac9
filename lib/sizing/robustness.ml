module C = Technology.Corner

type point = {
  corner : C.t;
  temperature : float;
  gbw : float;
  phase_margin : float;
  dc_gain_db : float;
  power : float;
  biased : bool;
}

type result = {
  points : point list;
  worst_gbw : float;
  worst_pm : float;
  all_biased : bool;
}

let measure_point ?rebias ~proc ~kind ~spec ~corner ~temperature amp =
  let proc = C.at_temperature temperature (C.apply corner proc) in
  let amp = match rebias with Some f -> f proc | None -> amp in
  match Testbench.make ~proc ~kind ~spec amp with
  | tb ->
    let gbw, phase_margin =
      match Testbench.gbw tb with
      | Some f -> (f, Testbench.phase_margin_at tb f)
      | None -> (Float.nan, Float.nan)
    in
    {
      corner;
      temperature;
      gbw;
      phase_margin;
      dc_gain_db = Sim.Measure.db (Testbench.dc_gain tb);
      power = Testbench.power tb;
      biased = true;
    }
  | exception Phys.Numerics.No_convergence _ ->
    {
      corner;
      temperature;
      gbw = Float.nan;
      phase_margin = Float.nan;
      dc_gain_db = Float.nan;
      power = Float.nan;
      biased = false;
    }

(* Coarse per-point memo: without [rebias] a grid point is a pure
   function of (process, kind, spec, corner, temperature, amp), so a
   warm re-run of the same sweep returns every point from cache.  With
   [rebias] the point depends on a closure that cannot be keyed
   structurally ([compare] raises on functional values), so those runs
   bypass this memo — the fine-grained device.eval memo still helps. *)
let point_memo :
    ( Technology.Process.t * Device.Model.kind * Spec.t * C.t * float * Amp.t,
      point )
    Cache.Memo.t =
  Cache.Memo.create ~name:"comdiac.corner_point" ~shards:8 ~capacity:8192 ()

let run ?corners ?temperatures ?ctx ?jobs ?rebias ?proc ~kind ~spec amp =
  let proc = Exec.Ctx.proc ?override:proc ctx in
  let jobs = Exec.Ctx.jobs ?override:jobs ctx in
  let chunk = Exec.Ctx.chunk ctx in
  Exec.Ctx.run ctx @@ fun () ->
  let grid = C.sweep_grid ?corners ?temperatures () in
  let measure (corner, temperature) =
    (* cooperative timeout boundary, as in Montecarlo.run *)
    Exec.Ctx.check_deadline ~analysis:"robustness" ctx;
    match rebias with
    | Some _ ->
      measure_point ?rebias ~proc ~kind ~spec ~corner ~temperature amp
    | None ->
      Cache.Memo.find_or_compute point_memo
        (proc, kind, spec, corner, temperature, amp)
        (fun () ->
          measure_point ~proc ~kind ~spec ~corner ~temperature amp)
  in
  (* every grid point re-corners the process and re-simulates a fixed
     design — fully independent, so fan out over the domain pool *)
  let points =
    Obs.Trace.with_span ~cat:"comdiac"
      ~args:[ ("points", Obs.Trace.Int (List.length grid)) ]
      "robustness.sweep"
      (fun () ->
        (* a corner point re-corners and re-simulates a whole design:
           moderate cost, a few points per chunk at most *)
        Par.Pool.map ?jobs ?chunk ~cost:Par.Pool.Moderate measure grid)
  in
  let biased = List.filter (fun p -> p.biased) points in
  let fold f init xs = List.fold_left f init xs in
  {
    points;
    worst_gbw =
      fold (fun acc p -> if Float.is_nan p.gbw then acc else Float.min acc p.gbw)
        infinity biased;
    worst_pm =
      fold
        (fun acc p ->
          if Float.is_nan p.phase_margin then acc else Float.min acc p.phase_margin)
        infinity biased;
    all_biased = List.for_all (fun p -> p.biased) points;
  }

let run_result ?corners ?temperatures ?ctx ?jobs ?rebias ?proc ~kind ~spec amp
    =
  match run ?corners ?temperatures ?ctx ?jobs ?rebias ?proc ~kind ~spec amp with
  | r -> Ok r
  | exception e ->
    (match Sim.Sim_error.of_exn ~analysis:"robustness" e with
     | Some err -> Error err
     | None -> raise e)

let meets r ~spec ~gbw_slack ~pm_slack =
  r.all_biased
  && r.worst_gbw >= (1.0 -. gbw_slack) *. spec.Spec.gbw
  && r.worst_pm >= spec.Spec.phase_margin -. pm_slack

let pp fmt r =
  Format.fprintf fmt "@[<v>corner / temperature verification:@,";
  List.iter
    (fun p ->
      if p.biased then
        Format.fprintf fmt
          "  %-3s %6.1f C: GBW %7.2f MHz  PM %5.1f deg  gain %5.1f dB  \
           power %5.2f mW@,"
          (C.to_string p.corner)
          (p.temperature -. 273.15)
          (p.gbw /. 1e6) p.phase_margin p.dc_gain_db (p.power /. 1e-3)
      else
        Format.fprintf fmt "  %-3s %6.1f C: FAILED TO BIAS@,"
          (C.to_string p.corner)
          (p.temperature -. 273.15))
    r.points;
  Format.fprintf fmt "  worst: GBW %.2f MHz, PM %.1f deg@]"
    (r.worst_gbw /. 1e6) r.worst_pm
