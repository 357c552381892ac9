open Helpers
module O = Opt.Objective
module S = Opt.Search

let proc = Technology.Process.c06
let kind = Device.Model.Bsim_lite
let spec = Comdiac.Spec.paper_ota

(* Structural equality on search results, NaN-safe (infeasible points
   carry NaN metrics, so [=] would report false negatives). *)
let same_outcome (a : S.result) (b : S.result) =
  Stdlib.compare (a.S.survivors, a.S.front, a.S.best)
    (b.S.survivors, b.S.front, b.S.best)
  = 0

(* --- candidate space ------------------------------------------------------- *)

let vec_gen =
  QCheck.Gen.(
    map
      (fun bits ->
        Array.init O.dims (fun d ->
          let t = float_of_int (List.nth bits d) /. 1000.0 in
          (* deliberately overshoot the bounds: snap must clamp *)
          O.lower.(d) +. ((O.upper.(d) -. O.lower.(d)) *. ((1.4 *. t) -. 0.2))))
      (list_repeat O.dims (int_bound 1000)))

let prop_snap_idempotent_and_bounded =
  QCheck.Test.make ~name:"snap clamps, lands on the lattice, idempotent"
    ~count:300 (QCheck.make vec_gen) (fun v ->
      let s = O.snap v in
      Array.length s = O.dims
      && Array.for_all2 (fun x (lo, hi) -> x >= lo && x <= hi) s
           (Array.map2 (fun a b -> (a, b)) O.lower O.upper)
      && Stdlib.compare (O.snap s) s = 0)

let prop_sample_vec_snapped =
  QCheck.Test.make ~name:"sampled candidates are already snapped" ~count:100
    QCheck.small_nat (fun seed ->
      let st = Par.Splitmix.create ~stream:3 seed in
      let v = O.sample_vec st in
      Stdlib.compare (O.snap v) v = 0)

(* --- objective determinism ------------------------------------------------- *)

let test_eval_cache_identity () =
  let obj = O.make ~proc ~kind ~spec () in
  let st = Par.Splitmix.create ~stream:0 7 in
  let vecs = List.init 10 (fun _ -> O.sample_vec st) in
  List.iter
    (fun (mode, vecs) ->
      let score vs = List.map (fun v -> O.eval obj ~mode v) vs in
      let off = Cache.Config.with_enabled false (fun () -> score vecs) in
      let cold = Cache.Config.with_enabled true (fun () -> score vecs) in
      let warm = Cache.Config.with_enabled true (fun () -> score vecs) in
      if Stdlib.compare off cold <> 0 || Stdlib.compare cold warm <> 0 then
        Alcotest.failf "tier %s: memo toggle changed evaluation results"
          (O.mode_tag mode))
    [ (O.Lut_plan, vecs); (O.Exact_plan, vecs);
      (* the simulator tier is expensive; three candidates suffice to
         cover the memo path *)
      (O.Simulated, List.filteri (fun i _ -> i < 3) vecs) ]

let test_tiers_agree_on_shape () =
  (* whatever the tier, a point reports the same snapped vector and a
     feasible point has finite metrics *)
  let obj = O.make ~proc ~kind ~spec () in
  let st = Par.Splitmix.create ~stream:1 11 in
  let v = O.sample_vec st in
  List.iter
    (fun mode ->
      let p = O.eval obj ~mode v in
      Alcotest.(check bool) "vector preserved" true
        (Stdlib.compare p.O.vec v = 0);
      if p.O.feasible then begin
        Alcotest.(check bool) "finite score" true (Float.is_finite p.O.score);
        Alcotest.(check bool) "finite power" true (Float.is_finite p.O.power)
      end
      else
        check_close "infeasible score is the sentinel" O.infeasible_score
          p.O.score)
    [ O.Lut_plan; O.Exact_plan; O.Simulated ]

(* --- search engine --------------------------------------------------------- *)

let run ?(jobs = 1) ?(cache = true) ?(starts = 2) ?(budget = 16) ?(seed = 5)
    ?(strategy = S.Nelder_mead) ?(lut = true) () =
  let ctx = Exec.Ctx.make ~jobs ~cache proc in
  S.run ~ctx ~starts ~budget ~strategy ~seed ~lut ~measure:false ~kind ~spec ()

let test_result_invariants () =
  let r = run ~starts:3 ~budget:24 () in
  Alcotest.(check int) "starts echoed" 3 r.S.starts;
  Alcotest.(check int) "seed echoed" 5 r.S.seed;
  Alcotest.(check bool) "coarse work done" true (r.S.evals_coarse >= 24);
  Alcotest.(check bool) "polish work done" true (r.S.evals_polish > 0);
  Alcotest.(check int) "one sim verification per survivor"
    (List.length r.S.survivors) r.S.evals_sim;
  (match r.S.survivors with
   | best :: _ ->
     Alcotest.(check bool) "best is the head survivor" true
       (Stdlib.compare best r.S.best = 0)
   | [] -> Alcotest.fail "no survivors");
  List.iter
    (fun p ->
      Alcotest.(check bool) "front points are survivors" true
        (List.exists (fun s -> Stdlib.compare s p = 0) r.S.survivors))
    r.S.front;
  Alcotest.(check bool) "positive throughput" true
    (S.points_per_second r > 0.0)

let prop_jobs_cache_identity =
  QCheck.Test.make
    ~name:"search bit-identical across jobs {1,2,8} x cache on/off" ~count:3
    QCheck.(make Gen.(triple (int_bound 999) bool bool))
    (fun (seed, nm, lut) ->
      let strategy = if nm then S.Nelder_mead else S.Anneal in
      let base = run ~jobs:1 ~cache:true ~seed ~strategy ~lut () in
      List.for_all
        (fun (jobs, cache) ->
          same_outcome base (run ~jobs ~cache ~seed ~strategy ~lut ()))
        [ (2, true); (8, false) ])

let test_lut_toggle_front_identity () =
  (* The LUT toggle only influences confirmed-set membership (see
     search.mli): front identity across it is empirical, so pin seeds
     the sweep verified rather than sampling — a random seed can
     legitimately diverge through a plan feasibility flip. *)
  List.iter
    (fun seed ->
      let a = run ~starts:4 ~budget:160 ~seed ~lut:true () in
      let b = run ~starts:4 ~budget:160 ~seed ~lut:false () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: exact re-verification erases the tier"
           seed)
        true
        (Stdlib.compare (a.S.front, a.S.best) (b.S.front, b.S.best) = 0))
    [ 2; 3 ]

let test_strategies_both_work () =
  let nm = run ~strategy:S.Nelder_mead () in
  let an = run ~strategy:S.Anneal () in
  Alcotest.(check bool) "nm found a feasible best" true nm.S.best.O.feasible;
  Alcotest.(check bool) "anneal found a feasible best" true
    an.S.best.O.feasible

let test_timeout_and_cancel () =
  (* expired deadline: Error Timeout through run_result, not an
     exception *)
  let dead = Exec.Ctx.with_timeout (Some 0.0) (Exec.Ctx.make proc) in
  (match
     S.run_result ~ctx:dead ~starts:2 ~budget:8 ~seed:1 ~measure:false ~kind
       ~spec ()
   with
   | Error (Sim.Sim_error.Timeout _) -> ()
   | Ok _ -> Alcotest.fail "expired deadline ran to completion"
   | Error e -> Alcotest.failf "wrong error: %s" (Sim.Sim_error.message e));
  (* pre-set cancellation token: same cooperative path *)
  let cancel = Atomic.make true in
  match
    S.run_result
      ~ctx:(Exec.Ctx.make ~cancel proc)
      ~starts:2 ~budget:8 ~seed:1 ~measure:false ~kind ~spec ()
  with
  | Error (Sim.Sim_error.Timeout _) -> ()
  | Ok _ -> Alcotest.fail "cancelled run completed"
  | Error e -> Alcotest.failf "wrong error: %s" (Sim.Sim_error.message e)

(* --- seed resolution ------------------------------------------------------- *)

(* The LOSAC_SEED cases run in the cli suite, against a spawned losac
   with its own environment. *)
let test_seed_resolution () =
  let ctx = Exec.Ctx.make ~seed:5 proc in
  Alcotest.(check int) "explicit override wins" 7
    (Exec.Ctx.seed ~override:7 (Some ctx));
  Alcotest.(check int) "ctx seed next" 5 (Exec.Ctx.seed (Some ctx));
  (* a search run records the seed it resolved *)
  let r = run ~seed:9 ~budget:8 () in
  Alcotest.(check int) "search echoes the resolved seed" 9 r.S.seed

(* --- LUT trust guard ------------------------------------------------------- *)

let test_trust_guard () =
  ignore (run ~budget:8 ());
  let t = Device.Lut.trust_check () in
  Alcotest.(check bool) "tables built" true (t.Device.Lut.tables > 0);
  Alcotest.(check bool) "cells visited" true (t.Device.Lut.cells_visited > 0);
  Alcotest.(check bool)
    (Printf.sprintf "interpolation trusted (max rel err %.2e)"
       t.Device.Lut.max_rel_err)
    true
    (t.Device.Lut.max_rel_err < 0.05)

let suite =
  ( "opt",
    [
      case "objective ignores the memo toggle" test_eval_cache_identity;
      case "tiers agree on point shape" test_tiers_agree_on_shape;
      case "result invariants" test_result_invariants;
      case "LUT toggle: pinned-seed front identity"
        test_lut_toggle_front_identity;
      case "both strategies produce feasible designs"
        test_strategies_both_work;
      case "timeout and cancellation surface as Error Timeout"
        test_timeout_and_cancel;
      case "seed resolution order" test_seed_resolution;
      case "LUT trust guard under the visited cells" test_trust_guard;
    ]
    @ qcheck_cases
        [
          prop_snap_idempotent_and_bounded; prop_sample_vec_snapped;
          prop_jobs_cache_identity;
        ] )
