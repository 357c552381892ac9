open Helpers
module Memo = Cache.Memo
module Flow = Core.Flow

let proc = Technology.Process.c06
let kind = Device.Model.Bsim_lite
let spec = Comdiac.Spec.paper_ota

(* --- hit/miss semantics --------------------------------------------------- *)

let test_hit_miss () =
  Cache.Config.with_enabled true @@ fun () ->
  let calls = ref 0 in
  let m = Memo.create ~shards:1 ~capacity:16 ~name:"test.hitmiss" () in
  let f k =
    Memo.find_or_compute m k (fun () ->
      incr calls;
      k * k)
  in
  Alcotest.(check int) "first lookup computes" 9 (f 3);
  Alcotest.(check int) "second lookup returns the same value" 9 (f 3);
  Alcotest.(check int) "the computation ran once" 1 !calls;
  let s = Memo.stats m in
  Alcotest.(check int) "one hit" 1 s.Memo.hits;
  Alcotest.(check int) "one miss" 1 s.Memo.misses;
  ignore (f 4);
  Alcotest.(check int) "a distinct key misses" 2 (Memo.stats m).Memo.misses;
  Alcotest.(check int) "two entries stored" 2 (Memo.stats m).Memo.entries;
  check_close "hit rate is hits/(hits+misses)" (1.0 /. 3.0)
    (Memo.hit_rate (Memo.stats m));
  Memo.clear m;
  let s = Memo.stats m in
  Alcotest.(check int) "clear zeroes the counters" 0 (s.Memo.hits + s.Memo.misses);
  Alcotest.(check int) "clear drops the entries" 0 s.Memo.entries

let test_nan_key_hits () =
  (* equality is [compare k1 k2 = 0], so a nan inside a key still hits *)
  Cache.Config.with_enabled true @@ fun () ->
  let m = Memo.create ~shards:1 ~capacity:4 ~name:"test.nan" () in
  let calls = ref 0 in
  let f k =
    Memo.find_or_compute m k (fun () ->
      incr calls;
      !calls)
  in
  Alcotest.(check int) "nan key computes once" (f (Float.nan, 1)) (f (Float.nan, 1));
  Alcotest.(check int) "one compute for the nan key" 1 !calls

let test_disabled_bypasses () =
  Cache.Config.with_enabled false @@ fun () ->
  let m = Memo.create ~shards:1 ~capacity:4 ~name:"test.disabled" () in
  let calls = ref 0 in
  let f k =
    Memo.find_or_compute m k (fun () ->
      incr calls;
      k)
  in
  ignore (f 1);
  ignore (f 1);
  Alcotest.(check int) "disabled cache recomputes every time" 2 !calls;
  let s = Memo.stats m in
  Alcotest.(check int) "no counters touched" 0 (s.Memo.hits + s.Memo.misses);
  Alcotest.(check int) "no entries stored" 0 s.Memo.entries;
  Alcotest.(check bool) "nothing cached" false (Memo.mem m 1)

(* --- LRU eviction order --------------------------------------------------- *)

let test_lru_eviction_order () =
  Cache.Config.with_enabled true @@ fun () ->
  (* one shard so the LRU list is global and the order fully observable *)
  let m = Memo.create ~shards:1 ~capacity:4 ~name:"test.lru" () in
  let touch k = ignore (Memo.find_or_compute m k (fun () -> k)) in
  List.iter touch [ 0; 1; 2; 3 ];
  (* key 0 is now least recently used; promote it with a hit *)
  touch 0;
  (* a fifth key must evict key 1, the oldest untouched entry *)
  touch 4;
  Alcotest.(check bool) "promoted key survives" true (Memo.mem m 0);
  Alcotest.(check bool) "least recently used key evicted" false (Memo.mem m 1);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "key %d retained" k)
        true (Memo.mem m k))
    [ 2; 3; 4 ];
  let s = Memo.stats m in
  Alcotest.(check int) "exactly one eviction" 1 s.Memo.evictions;
  Alcotest.(check int) "size pinned at capacity" 4 s.Memo.entries;
  (* evicted key recomputes: a miss, then hits again *)
  touch 1;
  Alcotest.(check int) "re-inserting the evicted key misses" 6
    (Memo.stats m).Memo.misses

(* --- cold == warm == uncached for every coarse memo ---------------------- *)

(* [run] computed with cold memos, again from the warm memos, and with
   caching disabled must compare structurally equal after [strip] (which
   drops wall-clock fields); the warm run must hit the memo named [memo] *)
let check_cache_identity ?memo ~strip run =
  Memo.clear_all ();
  let cold = Cache.Config.with_enabled true run in
  let warm = Cache.Config.with_enabled true run in
  Option.iter
    (fun name ->
      match
        List.find_opt (fun st -> st.Memo.name = name) (Memo.registry ())
      with
      | Some st ->
        Alcotest.(check bool) (name ^ " answered the warm run") true
          (st.Memo.hits > 0)
      | None -> Alcotest.failf "no memo named %s" name)
    memo;
  let uncached = Cache.Config.with_enabled false run in
  Alcotest.(check bool) "warm rerun is bit-identical" true
    (compare (strip cold) (strip warm) = 0);
  Alcotest.(check bool) "cache on == cache off" true
    (compare (strip cold) (strip uncached) = 0)

let test_flow_bit_identity () =
  check_cache_identity ~memo:"flow.sizing"
    ~strip:(fun r -> { r with Flow.elapsed = 0.0 })
    (fun () -> Flow.run ~proc ~kind ~spec Flow.Case2)

let sized =
  lazy
    (Comdiac.Folded_cascode.size ~proc ~kind ~spec
       ~parasitics:Comdiac.Parasitics.single_fold)

(* the comdiac.mc_sample memo *)
let test_mc_bit_identity () =
  let amp = (Lazy.force sized).Comdiac.Folded_cascode.amp in
  check_cache_identity ~memo:"comdiac.mc_sample" ~strip:Fun.id (fun () ->
    Comdiac.Montecarlo.run ~n:6 ~proc ~kind ~spec amp)

(* the comdiac.corner_point memo (frozen bias), and the rebiased sweep
   that bypasses it for the device-level memos *)
let test_corners_bit_identity () =
  let design = Lazy.force sized in
  let amp = design.Comdiac.Folded_cascode.amp in
  let corners = Technology.Corner.[ TT; SS ] in
  let temperatures = [ Technology.Corner.celsius 85.0 ] in
  check_cache_identity ~memo:"comdiac.corner_point" ~strip:Fun.id (fun () ->
    Comdiac.Robustness.run ~corners ~temperatures ~proc ~kind ~spec amp);
  let rebias p = Comdiac.Folded_cascode.rebias ~proc:p ~kind ~spec design in
  check_cache_identity ~strip:Fun.id (fun () ->
    Comdiac.Robustness.run ~corners ~temperatures ~rebias ~proc ~kind ~spec
      amp)

(* --- concurrent access from pool workers ---------------------------------- *)

(* a pure, deliberately repetition-heavy function to memoize *)
let mix x =
  let r = ref (x land 1023) in
  for _ = 1 to 50 do
    r := ((!r * 31) + 7) mod 1000003
  done;
  !r

let pool_memo = Memo.create ~shards:4 ~capacity:1024 ~name:"test.pool" ()

let prop_pool_workers_consistent =
  QCheck.Test.make ~count:25 ~name:"memo shared by 4 pool workers stays exact"
    QCheck.(list_of_size Gen.(return 64) (int_bound 40))
    (fun xs ->
      Cache.Config.with_enabled true @@ fun () ->
      let via_memo x = Memo.find_or_compute pool_memo x (fun () -> mix x) in
      let from_pool = Par.Pool.map ~jobs:4 via_memo xs in
      (* every worker must observe the exact sequential value, racing
         inserts included *)
      from_pool = List.map mix xs
      && (Memo.stats pool_memo).Memo.entries <= 1024)

let test_cache_off_propagates_to_workers () =
  (* a context-local cache-off binding must follow the batch onto pool
     worker domains: no entries may appear while it is in force *)
  let m = Memo.create ~shards:4 ~capacity:64 ~name:"test.pool-off" () in
  Cache.Config.set_enabled true;
  (Cache.Config.with_enabled false @@ fun () ->
   let r =
     Par.Pool.map ~jobs:4
       (fun x -> Memo.find_or_compute m x (fun () -> mix x))
       (List.init 64 Fun.id)
   in
   Alcotest.(check bool) "values still exact" true
     (r = List.map mix (List.init 64 Fun.id));
   Alcotest.(check int) "workers honoured the cache-off binding" 0
     (Memo.stats m).Memo.entries);
  (* the binding ended with the scope: the same batch now populates *)
  ignore
    (Par.Pool.map ~jobs:4
       (fun x -> Memo.find_or_compute m x (fun () -> mix x))
       (List.init 8 Fun.id));
  Alcotest.(check bool) "workers cache again after the scope" true
    ((Memo.stats m).Memo.entries > 0)

(* --- execution context ---------------------------------------------------- *)

let test_ctx_resolution () =
  let ctx = Exec.Ctx.make ~jobs:3 proc in
  Alcotest.(check bool) "ctx supplies the process" true
    (Exec.Ctx.proc (Some ctx) == proc);
  Alcotest.(check bool) "explicit process overrides the context" true
    (Exec.Ctx.proc ~override:Technology.Process.c035 (Some ctx)
     == Technology.Process.c035);
  Alcotest.(check (option int)) "ctx supplies jobs" (Some 3)
    (Exec.Ctx.jobs (Some ctx));
  Alcotest.(check (option int)) "explicit jobs override the context" (Some 8)
    (Exec.Ctx.jobs ~override:8 (Some ctx));
  Alcotest.(check (option int)) "no context, no jobs" None (Exec.Ctx.jobs None);
  (match Exec.Ctx.proc None with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "proc with neither context nor override must raise");
  (* scope restores the cache flag even when the body raises *)
  let before = Cache.Config.enabled () in
  let ctx = Exec.Ctx.make ~cache:(not before) proc in
  (match Exec.Ctx.run (Some ctx) (fun () -> failwith "boom") with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "run must re-raise");
  Alcotest.(check bool) "cache flag restored after exception" before
    (Cache.Config.enabled ())

let suite =
  ( "cache",
    [
      case "hit/miss semantics and counters" test_hit_miss;
      case "nan inside a key still hits" test_nan_key_hits;
      case "disabled cache bypasses table and counters" test_disabled_bypasses;
      case "LRU eviction order" test_lru_eviction_order;
      case "flow case: cache on == cache off" test_flow_bit_identity;
      case "cache-off binding propagates to pool workers"
        test_cache_off_propagates_to_workers;
      case "ctx resolution and scoped flags" test_ctx_resolution;
    ]
    @ qcheck_cases [ prop_pool_workers_consistent ]
    @ [
        case "monte carlo: cache on == cache off" test_mc_bit_identity;
        case "corner sweeps: cache on == cache off" test_corners_bit_identity;
      ] )
