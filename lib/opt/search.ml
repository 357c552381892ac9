module O = Objective

type strategy = Nelder_mead | Anneal

let strategy_to_string = function
  | Nelder_mead -> "nm"
  | Anneal -> "anneal"

let strategy_of_string = function
  | "nm" | "nelder-mead" -> Some Nelder_mead
  | "anneal" | "annealing" -> Some Anneal
  | _ -> None

type result = {
  strategy : strategy;
  seed : int;
  starts : int;
  budget : int;
  lut : bool;
  evals_coarse : int;
  evals_polish : int;
  evals_sim : int;
  survivors : O.point list;
  front : O.point list;
  best : O.point;
  best_design : Comdiac.Folded_cascode.design option;
  best_performance : Comdiac.Performance.t option;
  elapsed_search_s : float;
  elapsed_verify_s : float;
}

(* ---------- strategy internals ------------------------------------- *)
(* Every candidate goes through clamp+snap before evaluation, so the
   whole search walks the lattice; [eval] is the per-start counting
   wrapper the caller supplies.  All randomness comes from the start's
   own SplitMix64 stream, drawn in a fixed order — a start's outcome is a
   pure function of (seed, start index). *)

let gaussian st =
  let u1 = Float.max 1e-12 (Par.Splitmix.float st) in
  let u2 = Par.Splitmix.float st in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let range d = O.upper.(d) -. O.lower.(d)

(* Nelder–Mead with standard coefficients (reflect 1, expand 2, contract
   0.5, shrink 0.5), started from a given point.  The simplex lives on
   the lattice; once proposals collapse onto existing vertices the
   simplex stops moving and the remaining budget is simply not spent —
   termination is by budget either way.  No randomness: the trajectory
   is a pure function of the start point and the objective. *)
let nelder_mead ~eval ~x0 ~budget =
  let n = O.dims in
  let spent = ref 0 in
  let ev v = incr spent; eval v in
  let vertex d =
    let v = Array.copy x0 in
    v.(d) <- v.(d) +. (0.25 *. range d);
    let v = O.snap v in
    if v = x0 then begin
      let w = Array.copy x0 in
      w.(d) <- w.(d) -. (0.25 *. range d);
      O.snap w
    end
    else v
  in
  let simplex = Array.make (n + 1) (ev x0) in
  for d = 0 to n - 1 do
    simplex.(d + 1) <- ev (vertex d)
  done;
  let sort () = Array.sort O.compare_point simplex in
  sort ();
  let best = ref simplex.(0) in
  let note p = if O.compare_point p !best < 0 then best := p in
  Array.iter note simplex;
  while !spent < budget do
    (* centroid of all but the worst *)
    let c = Array.make n 0.0 in
    for i = 0 to n - 1 do
      for d = 0 to n - 1 do
        c.(d) <- c.(d) +. (simplex.(i).O.vec.(d) /. float_of_int n)
      done
    done;
    let worst = simplex.(n) in
    let combine t =
      O.snap
        (Array.init n (fun d -> c.(d) +. (t *. (c.(d) -. worst.O.vec.(d)))))
    in
    let reflect = ev (combine 1.0) in
    note reflect;
    (if O.compare_point reflect simplex.(0) < 0 && !spent < budget then begin
       (* best so far: try expanding further along the same direction *)
       let expand = ev (combine 2.0) in
       note expand;
       simplex.(n) <-
         (if O.compare_point expand reflect < 0 then expand else reflect)
     end
     else if O.compare_point reflect simplex.(n - 1) < 0 then
       simplex.(n) <- reflect
     else if !spent < budget then begin
       let contract = ev (combine (-0.5)) in
       note contract;
       if O.compare_point contract worst < 0 then simplex.(n) <- contract
       else begin
         (* shrink toward the best vertex *)
         let b = simplex.(0).O.vec in
         let i = ref 1 in
         while !i <= n && !spent < budget do
           let v =
             O.snap
               (Array.init n (fun d ->
                  b.(d) +. (0.5 *. (simplex.(!i).O.vec.(d) -. b.(d)))))
           in
           simplex.(!i) <- ev v;
           note simplex.(!i);
           incr i
         done
       end
     end);
    sort ()
  done;
  !best

(* Annealing fallback for non-smooth regions: a gaussian random walk
   whose step size and acceptance temperature shrink geometrically over
   the budget.  The acceptance scale is relative to the current score so
   the schedule works in both the penalty-dominated (1e3-ish) and
   cost-dominated (unity-ish) regimes. *)
let anneal ~eval st ~x0 ~budget =
  let spent = ref 0 in
  let ev v = incr spent; eval v in
  let x = ref (ev x0) in
  let best = ref !x in
  let t_hi = 1.0 and t_lo = 0.02 in
  while !spent < budget do
    let frac = float_of_int !spent /. float_of_int (max 1 budget) in
    let temp = t_hi *. ((t_lo /. t_hi) ** frac) in
    let y = Array.copy !x.O.vec in
    for d = 0 to O.dims - 1 do
      y.(d) <- y.(d) +. (gaussian st *. 0.3 *. range d *. temp)
    done;
    let fy = ev (O.snap y) in
    if O.compare_point fy !best < 0 then best := fy;
    let u = Par.Splitmix.float st in
    let scale = temp *. 0.1 *. (Float.abs !x.O.score +. 1.0) in
    if
      O.compare_point fy !x < 0
      || exp ((!x.O.score -. fy.O.score) /. scale) > u
    then x := fy
  done;
  !best

(* Exact-plan polish: deterministic steepest-descent over lattice
   neighbourhoods at shrinking strides.  No randomness — from any start
   inside a basin this converges to the basin's lattice-local minimum,
   which is what makes the final answer independent of which coarse tier
   (LUT or exact plan) found the basin. *)
let polish ~eval ~cap start =
  let spent = ref 0 in
  let cur = ref start in
  List.iter
    (fun stride ->
      let improved = ref true in
      while !improved && !spent < cap do
        improved := false;
        let candidate = ref None in
        for d = 0 to O.dims - 1 do
          List.iter
            (fun dir ->
              let v = Array.copy !cur.O.vec in
              v.(d) <- v.(d) +. (float_of_int (dir * stride) *. O.step d);
              let v = O.snap v in
              if v <> !cur.O.vec && !spent < cap then begin
                incr spent;
                let p = eval v in
                match !candidate with
                | Some q when O.compare_point q p <= 0 -> ()
                | _ -> candidate := Some p
              end)
            [ -1; 1 ]
        done;
        match !candidate with
        | Some p when O.compare_point p !cur < 0 ->
          cur := p;
          improved := true
        | _ -> ()
      done)
    [ 16; 8; 4; 2; 1 ];
  (!cur, !spent)

(* ---------- the engine --------------------------------------------- *)

let run ?ctx ?(starts = 6) ?(budget = 480) ?(strategy = Nelder_mead) ?seed
    ?(lut = true) ?(measure = true) ?proc ~kind ~spec () =
  let proc = Exec.Ctx.proc ?override:proc ctx in
  let seed = Exec.Ctx.seed ?override:seed ctx in
  let jobs = Exec.Ctx.jobs ctx in
  let starts = max 1 starts in
  let budget = max (4 * O.dims * starts) budget in
  Exec.Ctx.run ctx @@ fun () ->
  Obs.Trace.with_span ~cat:"opt"
    ~args:
      [ ("starts", Obs.Trace.Int starts); ("budget", Obs.Trace.Int budget);
        ("seed", Obs.Trace.Int seed) ]
    "opt.search"
  @@ fun () ->
  let obj = O.make ~proc ~kind ~spec () in
  let coarse_mode = if lut then O.Lut_plan else O.Exact_plan in
  let per_start = max (4 * O.dims) (budget / starts) in
  (* wide enough that a LUT-tier ranking miss still keeps the true exact
     best inside the confirmed set: across seed sweeps the worst observed
     rank of the exact-best probe under LUT scoring was 20 of 80 *)
  let screen_top = max 8 (3 * per_start / 10) in
  let refine_budget = 10 * O.dims in
  (* generous: the polish must run to a lattice-local minimum (not stop
     mid-descent) for the cross-tier front-identity property to hold *)
  let polish_cap = 200 * O.dims in
  (* One start = (1) a high-volume screening pass: [per_start] candidate
     vectors drawn from the start's own SplitMix64 stream — the {e same}
     vectors whichever tier scores them — scored in the coarse tier;
     (2) exact-confirmed selection: the top-[screen_top] screened
     candidates re-scored with the exact plan, best one wins; (3) the
     search strategy refining {e on the exact plan} from that winner;
     (4) the deterministic lattice polish.  Stages 2-4 depend only on
     (seed, index, exact plan, selected start point), so the LUT toggle
     can change the result only by ranking the true best screened
     candidate out of the top [screen_top] — which is what the trust
     guard bounds.  A start is a pure function of (seed, index);
     Par.Pool.map reassembles results in start order, so the fan-out is
     bit-identical at any jobs count. *)
  let one index =
    Exec.Ctx.check_deadline ~analysis:"optimize" ctx;
    let st = Par.Splitmix.create ~stream:index seed in
    let coarse_n = ref 0 in
    let evalc v =
      incr coarse_n;
      O.eval ?ctx obj ~mode:coarse_mode v
    in
    (* all stream draws happen here, before any score is looked at: the
       probe list is identical across tiers *)
    let probes = List.init per_start (fun _ -> O.sample_vec st) in
    let screened = List.stable_sort O.compare_point (List.map evalc probes) in
    let top =
      let rec take acc k = function
        | [] -> List.rev acc
        | _ when k = 0 -> List.rev acc
        | (p : O.point) :: tl ->
          if List.exists (fun (q : O.point) -> q.O.vec = p.O.vec) acc then
            take acc k tl
          else take (p :: acc) (k - 1) tl
      in
      take [] screen_top screened
    in
    let exact_n = ref 0 in
    let evale v =
      incr exact_n;
      O.eval ?ctx obj ~mode:O.Exact_plan v
    in
    let x0 =
      List.map (fun (p : O.point) -> evale p.O.vec) top
      |> List.sort O.compare_point |> List.hd
    in
    let refined =
      match strategy with
      | Nelder_mead -> nelder_mead ~eval:evale ~x0:x0.O.vec ~budget:refine_budget
      | Anneal -> anneal ~eval:evale st ~x0:x0.O.vec ~budget:refine_budget
    in
    let polished, _ = polish ~eval:evale ~cap:polish_cap refined in
    (polished, !coarse_n, !exact_n)
  in
  let t0 = Obs.Clock.monotonic_s () in
  let per_start_results =
    Par.Pool.map ?jobs ~cost:Par.Pool.Expensive one
      (List.init starts Fun.id)
  in
  let t1 = Obs.Clock.monotonic_s () in
  let evals_coarse =
    List.fold_left (fun acc (_, c, _) -> acc + c) 0 per_start_results
  in
  let evals_polish =
    List.fold_left (fun acc (_, _, p) -> acc + p) 0 per_start_results
  in
  (* Survivors: the polished per-start winners, deduplicated by vector in
     start order.  These are the only points that pay for simulation. *)
  let survivors_vecs =
    List.fold_left
      (fun acc (p, _, _) ->
        if List.exists (fun v -> v = p.O.vec) acc then acc
        else p.O.vec :: acc)
      []
      per_start_results
    |> List.rev
  in
  let sim_pts =
    Par.Pool.map ?jobs ~cost:Par.Pool.Expensive
      (fun v -> O.eval ?ctx obj ~mode:O.Simulated v)
      survivors_vecs
  in
  let t2 = Obs.Clock.monotonic_s () in
  let survivors = List.sort O.compare_point sim_pts in
  let best =
    match survivors with
    | b :: _ -> b
    | [] -> assert false (* starts >= 1 *)
  in
  let front = O.pareto survivors in
  let best_design =
    if best.O.feasible then
      match
        Comdiac.Folded_cascode.size_with ~knobs:(O.knobs_of_vec best.O.vec)
          ~dev_eval:Comdiac.Folded_cascode.Exact_model ~proc ~kind ~spec
          ~parasitics:Comdiac.Parasitics.single_fold ()
      with
      | d -> Some d
      | exception (Failure _ | Phys.Numerics.No_convergence _) -> None
    else None
  in
  let best_performance =
    if measure then
      match best_design with
      | None -> None
      | Some d ->
        (match
           Comdiac.Testbench.performance
             (Comdiac.Testbench.make ~proc ~kind ~spec
                d.Comdiac.Folded_cascode.amp)
         with
         | p -> Some p
         | exception (Failure _ | Phys.Numerics.No_convergence _) -> None)
    else None
  in
  (* the LUT trust guard: publish how far the interpolated tier strayed
     from the exact model on the grid cells this run actually visited *)
  ignore (Device.Lut.trust_check ());
  if Obs.Config.enabled () then begin
    Obs.Metrics.add "opt.starts" (float_of_int starts);
    Obs.Metrics.add "opt.survivors" (float_of_int (List.length survivors))
  end;
  {
    strategy;
    seed;
    starts;
    budget;
    lut;
    evals_coarse;
    evals_polish;
    evals_sim = List.length sim_pts;
    survivors;
    front;
    best;
    best_design;
    best_performance;
    elapsed_search_s = t1 -. t0;
    elapsed_verify_s = t2 -. t1;
  }

let run_result ?ctx ?starts ?budget ?strategy ?seed ?lut ?measure ?proc ~kind
    ~spec () =
  match run ?ctx ?starts ?budget ?strategy ?seed ?lut ?measure ?proc ~kind
          ~spec ()
  with
  | r -> Ok r
  | exception e ->
    (match Sim.Sim_error.of_exn ~analysis:"optimize" e with
     | Some err -> Error err
     | None -> raise e)

let points_per_second r =
  let pts = float_of_int (r.evals_coarse + r.evals_polish) in
  if r.elapsed_search_s > 0.0 then pts /. r.elapsed_search_s else 0.0

let pp fmt r =
  let open Format in
  fprintf fmt "@[<v>optimize: strategy=%s seed=%d starts=%d budget=%d lut=%b@,"
    (strategy_to_string r.strategy)
    r.seed r.starts r.budget r.lut;
  fprintf fmt
    "  evaluations: %d coarse + %d polish + %d simulated (%.0f pts/s coarse+polish)@,"
    r.evals_coarse r.evals_polish r.evals_sim (points_per_second r);
  let pp_point tag p =
    if p.O.feasible then
      fprintf fmt
        "  %s score %.4f pen %.4f  gbw %.1f MHz  pm %.1f deg  gain %.1f dB  \
         power %.2f mW  area %.0f um^2@,"
        tag p.O.score p.O.penalty (p.O.gbw /. 1e6) p.O.pm p.O.gain_db
        (p.O.power /. 1e-3)
        (p.O.area /. 1e-12)
    else fprintf fmt "  %s infeasible@," tag
  in
  pp_point "best " r.best;
  List.iteri (fun i p -> pp_point (sprintf "front[%d]" i) p) r.front;
  fprintf fmt "@]"
