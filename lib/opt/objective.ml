module FC = Comdiac.Folded_cascode
module Spec = Comdiac.Spec

(* Candidate space: the plan inputs the paper's COMDIAC procedure chooses
   from design knowledge, exposed as a 6-vector the search walks.  Every
   coordinate lives on a finite lattice (see [snap]): the memo cache then
   sees revisited points as exact key hits, and two searches that land in
   the same basin converge to the *identical* vector, which is what makes
   cross-tier front agreement testable bit-for-bit. *)

let dims = 6
let names = [| "veff_in"; "veff_tail"; "veff_nsink"; "veff_psrc";
               "i2_ratio"; "l_mult" |]
let lower = [| 0.10; 0.16; 0.15; 0.16; 0.95; 1.00 |]
let upper = [| 0.24; 0.38; 0.30; 0.30; 2.00; 1.50 |]

(* lattice resolution per dimension: 1/64 of the range *)
let lattice_steps = 64

let step d = (upper.(d) -. lower.(d)) /. float_of_int lattice_steps

let clamp d x = Float.max lower.(d) (Float.min upper.(d) x)

let snap vec =
  Array.mapi
    (fun d x ->
      let h = step d in
      let k = Float.round ((clamp d x -. lower.(d)) /. h) in
      clamp d (lower.(d) +. (k *. h)))
    vec

let knobs_of_vec v =
  { FC.veff_in = Some v.(0); veff_tail = Some v.(1); veff_nsink = Some v.(2);
    veff_psrc = Some v.(3); i2_ratio = Some v.(4); l_mult = Some v.(5) }

(* Draw a random snapped candidate from a SplitMix64 stream.  The fill
   order is an explicit loop: [Array.init]'s evaluation order is
   unspecified, and the draw order is part of the determinism contract. *)
let sample_vec st =
  let v = Array.make dims 0.0 in
  for d = 0 to dims - 1 do
    v.(d) <- lower.(d) +. (Par.Splitmix.float st *. (upper.(d) -. lower.(d)))
  done;
  snap v

type mode = Lut_plan | Exact_plan | Simulated

let mode_tag = function
  | Lut_plan -> "lut"
  | Exact_plan -> "plan"
  | Simulated -> "sim"

type point = {
  vec : float array;
  feasible : bool;
  gbw : float;
  pm : float;
  gain_db : float;
  power : float;
  area : float;
  penalty : float;
  score : float;
}

(* Deterministic total order: score first, then the vector
   lexicographically, so equal-score candidates (e.g. two infeasible
   points) still sort the same way on every domain and at every jobs
   count. *)
let compare_point p q =
  match Float.compare p.score q.score with
  | 0 -> Stdlib.compare p.vec q.vec
  | c -> c

type t = {
  proc : Technology.Process.t;
  kind : Device.Model.kind;
  spec : Spec.t;
}

let make ~proc ~kind ~spec () = { proc; kind; spec }

(* A dc-gain floor keeps the cost tiebreak from walking into degenerate
   low-gain corners the Table-1 header does not constrain explicitly. *)
let gain_floor_db = 60.0

(* Spec-satisfaction penalty (relative deficits over the Table-1 specs)
   plus an area/power tiebreak once the specs are met.  The same formula
   scores every tier, so plan-predicted and simulated metrics are
   directly comparable. *)
let score_of spec ~gbw ~pm ~gain_db ~power ~area =
  let rel_deficit target v =
    if Float.is_nan v then 1.0
    else Float.max 0.0 ((target -. v) /. target)
  in
  let penalty =
    rel_deficit spec.Spec.gbw gbw
    +. rel_deficit spec.Spec.phase_margin pm
    +. rel_deficit gain_floor_db gain_db
  in
  (* power in mW and gate area in 1e-9 m^2: both land near unity for the
     paper's OTA, so neither silently dominates the tiebreak *)
  let cost = (power /. 1e-3) +. (area /. 1e-9) in
  (penalty, (1e3 *. penalty) +. cost)

let infeasible_score = 1e9

let infeasible vec =
  { vec; feasible = false; gbw = Float.nan; pm = Float.nan;
    gain_db = Float.nan; power = Float.nan; area = Float.nan;
    penalty = Float.nan; score = infeasible_score }

let area_of amp =
  List.fold_left
    (fun acc d -> acc +. (d.Device.Mos.w *. d.Device.Mos.l))
    0.0
    (Comdiac.Amp.mos_devices amp)

let finish spec vec ~gbw ~pm ~gain_db ~power ~area =
  let penalty, score = score_of spec ~gbw ~pm ~gain_db ~power ~area in
  if Float.is_finite score then
    { vec; feasible = true; gbw; pm; gain_db; power; area; penalty; score }
  else infeasible vec

(* The plan tiers: run the COMDIAC sizing plan with the candidate's knob
   overrides and score its *predicted* metrics — no simulation.  The LUT
   variant additionally interpolates every forward device evaluation
   from the Device.Lut grids, which is the cheap first-pass path. *)
let eval_plan t ~dev_eval vec =
  match
    FC.size_with ~knobs:(knobs_of_vec vec) ~dev_eval ~proc:t.proc ~kind:t.kind
      ~spec:t.spec ~parasitics:Comdiac.Parasitics.single_fold ()
  with
  | design ->
    finish t.spec vec ~gbw:design.FC.predicted_gbw ~pm:design.FC.predicted_pm
      ~gain_db:design.FC.predicted_gain_db
      ~power:(t.spec.Spec.vdd *. design.FC.amp.Comdiac.Amp.supply_current)
      ~area:(area_of design.FC.amp)
  | exception (Failure _ | Phys.Numerics.No_convergence _) -> infeasible vec

(* The exact tier: size with exact models, then *measure* the candidate
   in the simulator — offset-nulled open loop, AC sweep, supply current.
   This is what "verify" means for the surviving front; it costs a full
   testbench per point, which is exactly why the coarse tiers exist. *)
let eval_sim t vec =
  match
    FC.size_with ~knobs:(knobs_of_vec vec) ~dev_eval:FC.Exact_model
      ~proc:t.proc ~kind:t.kind ~spec:t.spec
      ~parasitics:Comdiac.Parasitics.single_fold ()
  with
  | design ->
    (match Comdiac.Testbench.make ~proc:t.proc ~kind:t.kind ~spec:t.spec
             design.FC.amp
     with
     | tb ->
       let gbw, pm =
         match Comdiac.Testbench.gbw tb with
         | Some f -> (f, Comdiac.Testbench.phase_margin_at tb f)
         | None -> (Float.nan, Float.nan)
       in
       finish t.spec vec ~gbw ~pm
         ~gain_db:(Sim.Measure.db (Comdiac.Testbench.dc_gain tb))
         ~power:(Comdiac.Testbench.power tb)
         ~area:(area_of design.FC.amp)
     | exception (Failure _ | Phys.Numerics.No_convergence _) ->
       infeasible vec)
  | exception (Failure _ | Phys.Numerics.No_convergence _) -> infeasible vec

(* Candidate-granularity memo: a point is a pure function of (process,
   model kind, spec, tier, vector), so revisited lattice points — simplex
   collapses, annealing walks crossing old ground, warm re-runs of the
   same optimization — cost a hash lookup.  Bit-identity with the cache
   off holds because the compute is pure. *)
let point_memo :
    ( Technology.Process.t * Device.Model.kind * Spec.t * string * float list,
      point )
    Cache.Memo.t =
  Cache.Memo.create ~name:"opt.candidate" ~shards:8 ~capacity:16384 ()

let eval ?ctx t ~mode vec =
  Exec.Ctx.check_deadline ~analysis:"optimize" ctx;
  if Obs.Config.enabled () then
    Obs.Metrics.incr (Printf.sprintf "opt.evals.%s" (mode_tag mode));
  Cache.Memo.find_or_compute point_memo
    (t.proc, t.kind, t.spec, mode_tag mode, Array.to_list vec)
    (fun () ->
      match mode with
      | Lut_plan -> eval_plan t ~dev_eval:FC.Lut_model vec
      | Exact_plan -> eval_plan t ~dev_eval:FC.Exact_model vec
      | Simulated -> eval_sim t vec)

(* Pareto front over (penalty, power, area), all minimized; infeasible
   points never enter.  Returned sorted by [compare_point]. *)
let pareto points =
  let feas = List.filter (fun p -> p.feasible) points in
  let dominates a b =
    a.penalty <= b.penalty && a.power <= b.power && a.area <= b.area
    && (a.penalty < b.penalty || a.power < b.power || a.area < b.area)
  in
  List.sort compare_point
    (List.filter
       (fun p -> not (List.exists (fun q -> dominates q p) feas))
       feas)
