open Helpers
module R = Linalg.Real
module C = Linalg.Cx

let test_identity_solve () =
  let a = R.identity 4 in
  let b = [| 1.0; 2.0; 3.0; 4.0 |] in
  let x = R.solve a b in
  Array.iteri (fun i v -> check_close "identity solve" b.(i) v) x

let test_known_system () =
  (* [[2,1],[1,3]] x = [3,5]  =>  x = [4/5, 7/5] *)
  let a = R.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = R.solve a [| 3.0; 5.0 |] in
  check_close "x0" 0.8 x.(0);
  check_close "x1" 1.4 x.(1)

let test_pivoting () =
  (* zero leading pivot requires a row swap *)
  let a = R.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = R.solve a [| 2.0; 3.0 |] in
  check_close "swap x0" 3.0 x.(0);
  check_close "swap x1" 2.0 x.(1)

let test_singular () =
  let a = R.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match R.solve a [| 1.0; 1.0 |] with
  | exception Linalg.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let test_matmul_identity () =
  let a = R.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let p = R.matmul a (R.identity 2) in
  check_close "a*I = a" 4.0 (R.get p 1 1);
  check_close "a*I = a (0,1)" 2.0 (R.get p 0 1)

let test_transpose () =
  let a = R.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = R.transpose a in
  Alcotest.(check int) "rows" 3 (R.rows t);
  check_close "t(2,1)" 6.0 (R.get t 2 1)

let test_complex_solve () =
  (* (1 + j) x = 2  =>  x = 1 - j *)
  let a = C.of_arrays [| [| { Complex.re = 1.0; im = 1.0 } |] |] in
  let x = C.solve a [| { Complex.re = 2.0; im = 0.0 } |] in
  check_close "re" 1.0 x.(0).Complex.re;
  check_close "im" (-1.0) x.(0).Complex.im

let test_complex_rc () =
  (* voltage divider: series R, shunt 1/(jwC): H = 1/(1 + jwRC) *)
  let r = 1e3 and c = 1e-9 and w = 1e6 in
  let g = 1.0 /. r in
  let yc = { Complex.re = 0.0; im = w *. c } in
  let y = C.of_arrays [| [| Complex.add { Complex.re = g; im = 0.0 } yc |] |] in
  let x = C.solve y [| { Complex.re = g; im = 0.0 } |] in
  let expect = Complex.div Complex.one { Complex.re = 1.0; im = w *. r *. c } in
  check_close ~rel:1e-9 "rc re" expect.Complex.re x.(0).Complex.re;
  check_close ~rel:1e-9 "rc im" expect.Complex.im x.(0).Complex.im

(* --- unboxed kernel backend ------------------------------------------- *)

module Df = Linalg.Dense_f
module Hs = Linalg.Hessenberg
module Ws = Linalg.Ws

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* random square system with no diagonal dominance, so partial pivoting
   actually has to reorder rows *)
let random_general_system n seed =
  let st = Random.State.make [| seed |] in
  let a =
    Array.init n (fun _ ->
      Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0))
  in
  let b = Array.init n (fun _ -> Random.State.float st 10.0 -. 5.0) in
  (a, b)

(* solve through the workspace kernel path, exactly as the analyses do *)
let kernel_real_solve rows b =
  let n = Array.length b in
  let ws = Ws.real n in
  Df.blit ~src:(Df.of_arrays rows) ~dst:ws.Ws.jac;
  Array.blit b 0 ws.Ws.rhs 0 n;
  Df.lu_factor_in_place ws.Ws.jac ~piv:ws.Ws.piv;
  Df.lu_solve_into ws.Ws.jac ~piv:ws.Ws.piv ~b:ws.Ws.rhs ~x:ws.Ws.delta;
  Array.copy ws.Ws.delta

let prop_kernel_real_bit_identical =
  QCheck.Test.make
    ~name:"unboxed real kernel bit-identical to functor backend" ~count:200
    QCheck.(pair (int_range 1 24) (int_range 0 100000))
    (fun (n, seed) ->
      let rows, b = random_general_system n seed in
      match R.solve (R.of_arrays rows) b with
      | x -> (
        match kernel_real_solve rows b with
        | y -> Array.for_all2 bits_eq x y
        | exception Linalg.Singular _ -> false)
      | exception Linalg.Singular k -> (
        match kernel_real_solve rows b with
        | _ -> false
        | exception Linalg.Singular k' -> k = k'))

let test_kernel_singular_identical () =
  let rows = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  let k_ref =
    match R.solve (R.of_arrays rows) [| 1.0; 1.0 |] with
    | _ -> Alcotest.fail "functor: expected Singular"
    | exception Linalg.Singular k -> k
  in
  match kernel_real_solve rows [| 1.0; 1.0 |] with
  | _ -> Alcotest.fail "kernel: expected Singular"
  | exception Linalg.Singular k ->
    Alcotest.(check int) "same failing column" k_ref k

let test_matvec_into () =
  let m = Df.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = Array.make 2 0.0 in
  Df.matvec_into m [| 5.0; 6.0 |] ~y;
  check_close "y0" 17.0 y.(0);
  check_close "y1" 39.0 y.(1)

(* Re-solving through a reused workspace must leave the minor heap alone:
   the real factor/solve path is allocation-free once the buffers exist.
   The small slack absorbs the boxed floats of the [Gc.minor_words]
   bookkeeping itself — a kernel that boxed matrix elements would
   allocate thousands of words per solve. *)
let test_workspace_zero_alloc () =
  Obs.Config.with_enabled false @@ fun () ->
  let n = 16 in
  let st = Random.State.make [| 7 |] in
  let rows =
    Array.init n (fun i ->
      Array.init n (fun j ->
        let v = Random.State.float st 2.0 -. 1.0 in
        if i = j then v +. float_of_int n +. 1.0 else v))
  in
  let b = Array.init n (fun i -> float_of_int (i + 1)) in
  let template = Df.of_arrays rows in
  let ws = Ws.real n in
  let real_solve () =
    Df.blit ~src:template ~dst:ws.Ws.jac;
    Array.blit b 0 ws.Ws.rhs 0 n;
    Df.lu_factor_in_place ws.Ws.jac ~piv:ws.Ws.piv;
    Df.lu_solve_into ws.Ws.jac ~piv:ws.Ws.piv ~b:ws.Ws.rhs ~x:ws.Ws.delta
  in
  real_solve ();
  (* warmed up; now measure *)
  let before = Gc.minor_words () in
  for _ = 1 to 200 do
    real_solve ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "solve path allocated %.0f minor words in 200 solves"
       words)
    true (words <= 64.0)

(* The transposed solve from the same factors matches the functor's
   solve of the explicit transpose. *)
let prop_lu_solve_transposed =
  QCheck.Test.make ~name:"transposed LU solve matches the transpose"
    ~count:100
    QCheck.(pair (int_range 1 20) (int_range 0 100000))
    (fun (n, seed) ->
      let rows, b = random_general_system n seed in
      match R.solve (R.transpose (R.of_arrays rows)) b with
      | exception Linalg.Singular _ -> QCheck.assume_fail ()
      | expect ->
        let m = Df.of_arrays rows and piv = Array.make n 0 in
        Df.lu_factor_in_place m ~piv;
        let x = Array.make n 0.0 in
        Df.lu_solve_t_into m ~piv ~b ~x;
        let scale = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1.0 expect in
        Array.for_all2 (fun u v -> Float.abs (u -. v) <= 1e-9 *. scale) x expect)

(* (I + jwA)⁻ᵀ c through the reduction, Q (I + jwH)⁻ᵀ Qᵀ c, against a
   complex LU of (I + jwA)ᵀ.  A spans four decades per entry and w
   eight, so the shifted matrix ranges from near-identity to dominated
   by A.  Some rows and columns of A are zeroed, as voltage sources zero
   them in a circuit's G⁻¹C, so that the isolation step permutes them
   out of the reduced block. *)
let prop_hessenberg_solve =
  QCheck.Test.make ~name:"Hessenberg shifted solve matches complex LU"
    ~count:300
    QCheck.(triple (int_range 1 24) (int_range 0 100000) (float_range (-4.0) 4.0))
    (fun (n, seed, lw) ->
      let st = Random.State.make [| seed |] in
      let a =
        Array.init n (fun _ ->
          Array.init n (fun _ ->
            (Random.State.float st 2.0 -. 1.0)
            *. (10.0 ** Random.State.float st 4.0)))
      in
      for _ = 1 to Random.State.int st (1 + (n / 3)) do
        let k = Random.State.int st n in
        if Random.State.bool st then Array.fill a.(k) 0 n 0.0
        else Array.iter (fun row -> row.(k) <- 0.0) a
      done;
      let c = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let w = 10.0 ** lw in
      let shifted_t =
        C.of_arrays
          (Array.init n (fun i ->
             Array.init n (fun j ->
               { Complex.re = (if i = j then 1.0 else 0.0); im = w *. a.(j).(i) })))
      in
      match C.solve shifted_t (Array.map (fun re -> { Complex.re; im = 0.0 }) c) with
      | exception Linalg.Singular _ -> QCheck.assume_fail ()
      | expect ->
        let hs = Hs.reduce a in
        let re = Array.make n 0.0 and im = Array.make n 0.0 in
        Hs.solve_t hs ~w (Hs.project hs c) ~re ~im;
        let x_re = Array.make n 0.0 and x_im = Array.make n 0.0 in
        Hs.lift hs ~re ~im ~x_re ~x_im;
        let scale =
          Array.fold_left (fun m v -> Float.max m (Complex.norm v)) 1e-300 expect
        in
        Array.for_all2
          (fun (e : Complex.t) (xr, xi) ->
            Complex.norm (Complex.sub e { Complex.re = xr; im = xi }) <= 1e-9 *. scale)
          expect
          (Array.map2 (fun xr xi -> (xr, xi)) x_re x_im)
        || QCheck.Test.fail_reportf "n %d seed %d w %g" n seed w)

let random_spd_system n seed =
  (* diagonally dominant random system: always solvable *)
  let st = Random.State.make [| seed |] in
  let a = R.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      R.set a i j (Random.State.float st 2.0 -. 1.0)
    done;
    R.set a i i (float_of_int n +. Random.State.float st 1.0)
  done;
  let b = Array.init n (fun _ -> Random.State.float st 10.0 -. 5.0) in
  (a, b)

let prop_lu_residual =
  QCheck.Test.make ~name:"LU solve residual small on random dominant systems"
    ~count:100
    QCheck.(pair (int_range 1 20) (int_range 0 10000))
    (fun (n, seed) ->
      let a, b = random_spd_system n seed in
      let x = R.solve a b in
      R.residual_norm a x b < 1e-8)

let prop_matvec_linear =
  QCheck.Test.make ~name:"matvec is linear" ~count:100
    QCheck.(triple (int_range 1 8) (int_range 0 1000) (float_range (-3.0) 3.0))
    (fun (n, seed, k) ->
      let a, b = random_spd_system n seed in
      let scaled = R.matvec a (Array.map (fun v -> k *. v) b) in
      let plain = R.matvec a b in
      Array.for_all2
        (fun s p -> Float.abs (s -. (k *. p)) < 1e-6 *. (1.0 +. Float.abs s))
        scaled plain)

let suite =
  ( "linalg",
    [
      case "identity solve" test_identity_solve;
      case "2x2 known system" test_known_system;
      case "partial pivoting" test_pivoting;
      case "singular detection" test_singular;
      case "matmul with identity" test_matmul_identity;
      case "transpose" test_transpose;
      case "complex 1x1 solve" test_complex_solve;
      case "complex RC divider" test_complex_rc;
      case "kernel singular agrees with functor" test_kernel_singular_identical;
      case "kernel matvec_into" test_matvec_into;
      case "workspace solves allocate nothing" test_workspace_zero_alloc;
    ]
    @ qcheck_cases
        [
          prop_lu_residual;
          prop_matvec_linear;
          prop_kernel_real_bit_identical;
          prop_lu_solve_transposed;
          prop_hessenberg_solve;
        ] )
