open Helpers

let test_bisect () =
  let root = Phys.Numerics.bisect ~f:(fun x -> x *. x -. 2.0) 0.0 2.0 in
  check_close ~rel:1e-9 "sqrt 2" (sqrt 2.0) root

let test_brent () =
  let root = Phys.Numerics.brent ~f:(fun x -> cos x -. x) 0.0 1.0 in
  check_close ~rel:1e-9 "dottie number" 0.7390851332151607 root

let test_brent_endpoint_root () =
  let root = Phys.Numerics.brent ~f:(fun x -> x) 0.0 1.0 in
  check_close ~abs_tol:1e-12 "root at endpoint" 0.0 root

let test_brent_no_bracket () =
  Alcotest.check_raises "no sign change"
    (Phys.Numerics.No_convergence "brent: no sign change on [1, 2]")
    (fun () -> ignore (Phys.Numerics.brent ~f:(fun x -> x) 1.0 2.0))

let test_secant () =
  let root = Phys.Numerics.secant ~f:(fun x -> x *. x *. x -. 8.0) 1.0 3.0 in
  check_close ~rel:1e-8 "cube root of 8" 2.0 root

let test_fixed_point () =
  let x = Phys.Numerics.fixed_point ~f:(fun x -> cos x) 1.0 in
  check_close ~rel:1e-7 "cos fixed point" 0.7390851332151607 x

let test_monotonic_search () =
  (* target outside the initial bracket on both sides *)
  let x = Phys.Numerics.monotonic_search ~f:(fun x -> x *. x) ~target:100.0 0.1 1.0 in
  check_close ~rel:1e-6 "expand above" 10.0 x;
  let x = Phys.Numerics.monotonic_search ~f:(fun x -> x *. x) ~target:1e-4 1.0 2.0 in
  check_close ~rel:1e-6 "shrink below" 1e-2 x

let test_simpson () =
  let v = Phys.Numerics.simpson ~f:sin 0.0 Float.pi in
  check_close ~rel:1e-8 "integral of sin" 2.0 v

let test_integrate_log () =
  (* integral of 1/x from 1 to e^3 is 3 *)
  let v = Phys.Numerics.integrate_log ~f:(fun x -> 1.0 /. x) 1.0 (exp 3.0) in
  check_close ~rel:1e-6 "1/x over log range" 3.0 v

let test_logspace () =
  let a = Phys.Numerics.logspace 1.0 1000.0 4 in
  check_close "first" 1.0 a.(0);
  check_close ~rel:1e-12 "second" 10.0 a.(1);
  check_close ~rel:1e-12 "last" 1000.0 a.(3)

let test_interp () =
  let pts = [| (0.0, 0.0); (1.0, 10.0); (2.0, 0.0) |] in
  check_close "interp mid" 5.0 (Phys.Numerics.interp_linear pts 0.5);
  check_close "interp clamp low" 0.0 (Phys.Numerics.interp_linear pts (-1.0));
  check_close "interp clamp high" 0.0 (Phys.Numerics.interp_linear pts 3.0)

let test_si_string () =
  Alcotest.(check string) "mega" "65 MHz" (Phys.Units.to_si_string "Hz" 65e6);
  Alcotest.(check string) "pico" "3 pF" (Phys.Units.to_si_string "F" 3e-12);
  Alcotest.(check string) "zero" "0 V" (Phys.Units.to_si_string "V" 0.0);
  Alcotest.(check string) "milli negative" "-1.5 mV"
    (Phys.Units.to_si_string "V" (-1.5e-3))

let test_thermal_voltage () =
  check_in_range "kT/q at 300K" 0.0258 0.0259
    (Phys.Const.thermal_voltage 300.0)

let prop_brent_finds_roots =
  QCheck.Test.make ~name:"brent finds root of shifted cubic" ~count:200
    QCheck.(float_range (-5.0) 5.0)
    (fun c ->
      (* f(x) = x^3 - c has the unique real root cbrt(c) *)
      let f x = (x *. x *. x) -. c in
      let root = Phys.Numerics.brent ~f (-10.0) 10.0 in
      Float.abs (f root) < 1e-6)

(* Passing the bracket ends' values saves exactly the two end calls and
   changes nothing else: same root bits, same interior evaluations. *)
let prop_brent_endpoint_values =
  QCheck.Test.make ~name:"brent ~fa ~fb is bit-equal to brent" ~count:300
    QCheck.(
      quad (float_range (-3.0) 3.0) (float_range 0.1 5.0)
        (float_range (-2.0) 2.0) (float_range 0.5 4.0))
    (fun (r, k, c, w) ->
      (* a quintic with a root at r, which the bracket [a, b] straddles;
         [assume] keeps the brackets with a sign change *)
      let calls = ref 0 in
      let f x =
        incr calls;
        let d = x -. r in
        (k *. d) +. (c *. d *. d *. d /. 3.0) +. (d *. d *. d *. d *. d)
      in
      let a = r -. w and b = r +. (w /. 2.0) in
      QCheck.assume (f a *. f b < 0.0);
      let fa = f a and fb = f b in
      calls := 0;
      let plain = Phys.Numerics.brent ~tol:1e-9 ~f a b in
      let plain_calls = !calls in
      calls := 0;
      let given = Phys.Numerics.brent ~tol:1e-9 ~fa ~fb ~f a b in
      Int64.equal (Int64.bits_of_float plain) (Int64.bits_of_float given)
      && !calls = plain_calls - 2)

(* The scan evaluates each grid point at most once, hands back the values
   of the bracket ends it evaluated, and finds the first sign change on a
   decreasing function. *)
let prop_scan_bracket_values =
  QCheck.Test.make ~name:"scan_bracket: one call per point, ends' values"
    ~count:300
    QCheck.(pair (int_range 2 200) (float_range (-0.5) 1.5))
    (fun (n, r) ->
      let points = Phys.Numerics.linspace 0.0 1.0 n in
      let calls = Hashtbl.create n in
      let f x =
        Hashtbl.replace calls x (1 + Option.value ~default:0 (Hashtbl.find_opt calls x));
        r -. x
      in
      let result = Phys.Numerics.scan_bracket ~f points in
      Hashtbl.fold (fun _ c ok -> ok && c = 1) calls true
      &&
      match result with
      | None -> r <= 0.0 || r > 1.0
      | Some (a, fa, b, fb) ->
        fa = r -. a && fb = r -. b && fa > 0.0 && fb <= 0.0)

let prop_interp_within_hull =
  QCheck.Test.make ~name:"linear interpolation stays within value hull"
    ~count:200
    QCheck.(pair (float_range 0.0 1.0) (list_of_size (Gen.int_range 2 8) (float_range (-100.0) 100.0)))
    (fun (t, ys) ->
      QCheck.assume (List.length ys >= 2);
      let pts = Array.of_list (List.mapi (fun i y -> (float_of_int i, y)) ys) in
      let n = Array.length pts in
      let x = t *. float_of_int (n - 1) in
      let v = Phys.Numerics.interp_linear pts x in
      let lo = List.fold_left Float.min infinity ys in
      let hi = List.fold_left Float.max neg_infinity ys in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let suite =
  ( "phys",
    [
      case "bisect sqrt2" test_bisect;
      case "brent dottie" test_brent;
      case "brent root at endpoint" test_brent_endpoint_root;
      case "brent requires bracket" test_brent_no_bracket;
      case "secant cube root" test_secant;
      case "fixed point of cos" test_fixed_point;
      case "monotonic search expands bracket" test_monotonic_search;
      case "simpson integral" test_simpson;
      case "log-domain integral" test_integrate_log;
      case "logspace endpoints" test_logspace;
      case "linear interpolation" test_interp;
      case "SI pretty printing" test_si_string;
      case "thermal voltage" test_thermal_voltage;
    ]
    @ qcheck_cases
        [ prop_brent_finds_roots; prop_brent_endpoint_values;
          prop_scan_bracket_values; prop_interp_within_hull ] )
