exception No_convergence of string

let default_tol = 1e-12

let bisect ?(tol = default_tol) ?(max_iter = 200) ~f a b =
  let fa = f a and fb = f b in
  if fa = 0.0 then a
  else if fb = 0.0 then b
  else if fa *. fb > 0.0 then
    raise (No_convergence (Printf.sprintf "bisect: no sign change on [%g, %g]" a b))
  else
    let rec loop a fa b i =
      let m = 0.5 *. (a +. b) in
      if i >= max_iter || Float.abs (b -. a) <= tol *. (1.0 +. Float.abs m) then m
      else
        let fm = f m in
        if fm = 0.0 then m
        else if fa *. fm < 0.0 then loop a fa m (i + 1)
        else loop m fm b (i + 1)
    in
    loop a fa b 0

(* Brent's method following the classical Numerical Recipes formulation:
   inverse quadratic interpolation / secant step, falling back to bisection
   whenever the interpolated step misbehaves.  A caller that has already
   evaluated the bracket ends passes their values as [fa]/[fb]. *)
let brent ?(tol = default_tol) ?(max_iter = 200) ?fa ?fb ~f a b =
  let fa = match fa with Some v -> v | None -> f a in
  let fb = match fb with Some v -> v | None -> f b in
  if fa = 0.0 then a
  else if fb = 0.0 then b
  else if fa *. fb > 0.0 then
    raise (No_convergence (Printf.sprintf "brent: no sign change on [%g, %g]" a b))
  else begin
    let a = ref a and b = ref b and c = ref a in
    let fa = ref fa and fb = ref fb and fc = ref fa in
    let d = ref (!b -. !a) and e = ref (!b -. !a) in
    let result = ref None in
    let i = ref 0 in
    while !result = None && !i < max_iter do
      incr i;
      if !fb *. !fc > 0.0 then begin
        c := !a; fc := !fa; d := !b -. !a; e := !d
      end;
      if Float.abs !fc < Float.abs !fb then begin
        a := !b; b := !c; c := !a;
        fa := !fb; fb := !fc; fc := !fa
      end;
      let tol1 = 2.0 *. epsilon_float *. Float.abs !b +. 0.5 *. tol in
      let xm = 0.5 *. (!c -. !b) in
      if Float.abs xm <= tol1 || !fb = 0.0 then result := Some !b
      else begin
        if Float.abs !e >= tol1 && Float.abs !fa > Float.abs !fb then begin
          let s = !fb /. !fa in
          let p, q =
            if !a = !c then
              let p = 2.0 *. xm *. s in
              (p, 1.0 -. s)
            else begin
              let q = !fa /. !fc and r = !fb /. !fc in
              let p = s *. (2.0 *. xm *. q *. (q -. r) -. (!b -. !a) *. (r -. 1.0)) in
              (p, (q -. 1.0) *. (r -. 1.0) *. (s -. 1.0))
            end
          in
          let p, q = if p > 0.0 then (p, -.q) else (-.p, q) in
          let min1 = 3.0 *. xm *. q -. Float.abs (tol1 *. q) in
          let min2 = Float.abs (!e *. q) in
          if 2.0 *. p < Float.min min1 min2 then begin
            e := !d; d := p /. q
          end
          else begin
            d := xm; e := !d
          end
        end
        else begin
          d := xm; e := !d
        end;
        a := !b; fa := !fb;
        if Float.abs !d > tol1 then b := !b +. !d
        else b := !b +. (if xm >= 0.0 then tol1 else -.tol1);
        fb := f !b
      end
    done;
    match !result with
    | Some x -> x
    | None -> !b
  end

let secant ?(tol = default_tol) ?(max_iter = 100) ~f x0 x1 =
  let rec loop x0 f0 x1 f1 i =
    if Float.abs f1 <= tol then x1
    else if i >= max_iter then
      raise (No_convergence "secant: iteration budget exhausted")
    else
      let denom = f1 -. f0 in
      if denom = 0.0 then raise (No_convergence "secant: flat function")
      else
        let x2 = x1 -. f1 *. (x1 -. x0) /. denom in
        if Float.abs (x2 -. x1) <= tol *. (1.0 +. Float.abs x2) then x2
        else loop x1 f1 x2 (f x2) (i + 1)
  in
  loop x0 (f x0) x1 (f x1) 0

let fixed_point ?(tol = default_tol) ?(max_iter = 200) ~f x0 =
  let rec loop x i =
    let x' = f x in
    if Float.abs (x' -. x) <= tol *. (1.0 +. Float.abs x') then x'
    else if i >= max_iter then
      raise (No_convergence "fixed_point: iteration budget exhausted")
    else loop x' (i + 1)
  in
  loop x0 0

let monotonic_search ?(rel_tol = 1e-9) ?(max_iter = 200) ~f ~target lo hi =
  let g x = f x -. target in
  (* Expand the bracket geometrically until it contains the target. *)
  let rec expand_hi hi i =
    if i > 60 then raise (No_convergence "monotonic_search: target above range")
    else if g hi >= 0.0 then hi
    else expand_hi (hi *. 2.0) (i + 1)
  in
  let rec shrink_lo lo i =
    if i > 60 then raise (No_convergence "monotonic_search: target below range")
    else if g lo <= 0.0 then lo
    else shrink_lo (lo /. 2.0) (i + 1)
  in
  let hi = expand_hi hi 0 in
  let lo = shrink_lo lo 0 in
  brent ~tol:(rel_tol *. (Float.abs hi +. Float.abs lo)) ~max_iter ~f:g lo hi

let simpson ?(n = 512) ~f a b =
  let n = if n mod 2 = 0 then n else n + 1 in
  let h = (b -. a) /. float_of_int n in
  let sum = ref (f a +. f b) in
  for i = 1 to n - 1 do
    let x = a +. float_of_int i *. h in
    sum := !sum +. (if i mod 2 = 1 then 4.0 else 2.0) *. f x
  done;
  !sum *. h /. 3.0

let integrate_log ?(points_per_decade = 64) ~f a b =
  assert (a > 0.0 && b > a);
  let decades = log10 (b /. a) in
  let n = max 8 (int_of_float (Float.ceil (decades *. float_of_int points_per_decade))) in
  (* substitute x = e^u so that dx = x du *)
  let g u = let x = exp u in f x *. x in
  simpson ~n ~f:g (log a) (log b)

let logspace a b n =
  assert (a > 0.0 && b > 0.0 && n >= 2);
  let la = log10 a and lb = log10 b in
  Array.init n (fun i ->
    10.0 ** (la +. (lb -. la) *. float_of_int i /. float_of_int (n - 1)))

let scan_stride = 8

let scan_bracket ~below points =
  let n = Array.length points in
  (* point by point inside the stride (lo, hi]; [below points.(hi)] is
     already known to hold *)
  let rec fine i hi = if i = hi || below points.(i) then i else fine (i + 1) hi in
  let rec coarse lo =
    if lo >= n - 1 then None
    else
      let hi = min (lo + scan_stride) (n - 1) in
      if below points.(hi) then Some (fine (lo + 1) hi) else coarse hi
  in
  match coarse 0 with
  | Some i -> Some (points.(i - 1), points.(i))
  | None -> None

let linspace a b n =
  assert (n >= 2);
  Array.init n (fun i -> a +. (b -. a) *. float_of_int i /. float_of_int (n - 1))

let interp_linear pts x =
  let n = Array.length pts in
  assert (n >= 1);
  let x0, y0 = pts.(0) and xn, yn = pts.(n - 1) in
  if x <= x0 then y0
  else if x >= xn then yn
  else begin
    (* binary search for the segment containing x *)
    let rec find lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if fst pts.(mid) <= x then find mid hi else find lo mid
    in
    let i = find 0 (n - 1) in
    let xa, ya = pts.(i) and xb, yb = pts.(i + 1) in
    if xb = xa then ya else ya +. (yb -. ya) *. (x -. xa) /. (xb -. xa)
  end

let close ?(rel = 1e-9) ?(abs_tol = 1e-12) a b =
  Float.abs (a -. b) <= Float.max abs_tol (rel *. Float.max (Float.abs a) (Float.abs b))
