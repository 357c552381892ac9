(* Householder reduction to upper Hessenberg form and the O(n²) shifted
   solves of a frequency sweep (Laub 1981). *)

(* H and Q are kept as arrays of rows: a bench's reduction is small and
   short-lived, and rows of a few dozen floats are allocated on the
   minor heap, where a flat n x n array would go straight to the major
   heap and pace its collections. *)
type t = {
  n : int;
  q : float array array;  (* Q by rows *)
  h : float array array;  (* H by rows, exact zeros below the subdiagonal *)
}

(* Isolation, the permutation step of LAPACK's balancing: a symmetric
   permutation moves each row with no off-diagonal entry in the active
   block [lo, hi] to its bottom and each such column to its top.  The
   permuted matrix is block upper triangular with triangular end blocks,
   so only the block [lo, hi] needs reflections.  In a circuit bench the
   nodes that voltage sources fix have zero rows in G⁻¹C and the source
   branch currents zero columns.  Returns [perm], the block and the
   permuted matrix in [h]: h_ij = a_(perm i)(perm j). *)
let isolate h =
  let n = Array.length h in
  let perm = Array.init n Fun.id in
  let lo = ref 0 and hi = ref (n - 1) in
  let swap i j =
    if i <> j then begin
      let r = h.(i) in
      h.(i) <- h.(j);
      h.(j) <- r;
      Array.iter
        (fun row ->
          let x = row.(i) in
          row.(i) <- row.(j);
          row.(j) <- x)
        h;
      let p = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- p
    end
  in
  (* the last i in [lo, hi] whose row (or column) has no off-diagonal
     entry in [lo, hi] *)
  let find ~row =
    let isolated i =
      let j = ref !lo and zero = ref true in
      while !zero && !j <= !hi do
        if !j <> i && (if row then h.(i).(!j) else h.(!j).(i)) <> 0.0 then
          zero := false;
        incr j
      done;
      !zero
    in
    let i = ref !hi in
    while !i >= !lo && not (isolated !i) do
      decr i
    done;
    if !i >= !lo then Some !i else None
  in
  let rec rows () =
    match find ~row:true with
    | Some i when !lo < !hi ->
      swap i !hi;
      decr hi;
      rows ()
    | Some _ | None -> ()
  in
  let rec cols () =
    match find ~row:false with
    | Some i when !lo < !hi ->
      swap i !lo;
      incr lo;
      cols ()
    | Some _ | None -> ()
  in
  rows ();
  cols ();
  (perm, !lo, !hi)

let reduce a =
  let n = Array.length a in
  let h = Array.map Array.copy a in
  let perm, lo, hi = isolate h in
  (* reflector k is I - beta_k v_k v_kᵀ, v_k nonzero in [k+1, hi] *)
  let vs = Array.make n [||] and betas = Array.make n 0.0 in
  let s = Array.make n 0.0 in
  (* m := (I - beta v vᵀ) m on rows [k+1, hi] and columns [k+1, last] *)
  let reflect_left m v beta k last =
    Array.fill s 0 n 0.0;
    for i = k + 1 to hi do
      let vi = v.(i) and mi = m.(i) in
      for j = k + 1 to last do
        Array.unsafe_set s j (Array.unsafe_get s j +. (vi *. Array.unsafe_get mi j))
      done
    done;
    for i = k + 1 to hi do
      let bvi = beta *. v.(i) and mi = m.(i) in
      for j = k + 1 to last do
        Array.unsafe_set mi j (Array.unsafe_get mi j -. (bvi *. Array.unsafe_get s j))
      done
    done
  in
  for k = lo to hi - 2 do
    let norm2 = ref 0.0 in
    for i = k + 1 to hi do
      norm2 := !norm2 +. (h.(i).(k) *. h.(i).(k))
    done;
    if !norm2 > 0.0 then begin
      (* v maps column k below the diagonal, x, onto alpha e1 *)
      let x0 = h.(k + 1).(k) in
      let alpha = if x0 >= 0.0 then -.sqrt !norm2 else sqrt !norm2 in
      let v = Array.make n 0.0 in
      v.(k + 1) <- x0 -. alpha;
      for i = k + 2 to hi do
        v.(i) <- h.(i).(k)
      done;
      (* 2 / vᵀv, with vᵀv = 2 alpha (alpha - x0) > 0 *)
      let beta = 1.0 /. (alpha *. (alpha -. x0)) in
      vs.(k) <- v;
      betas.(k) <- beta;
      h.(k + 1).(k) <- alpha;
      for i = k + 2 to hi do
        h.(i).(k) <- 0.0
      done;
      (* H := (I - beta v vᵀ) H, then H := H (I - beta v vᵀ) on rows
         [0, hi] (the rows below are zero in columns [lo, hi]) *)
      reflect_left h v beta k (n - 1);
      for i = 0 to hi do
        let row = h.(i) in
        let acc = ref 0.0 in
        for j = k + 1 to hi do
          acc := !acc +. (Array.unsafe_get row j *. Array.unsafe_get v j)
        done;
        let bs = beta *. !acc in
        for j = k + 1 to hi do
          Array.unsafe_set row j (Array.unsafe_get row j -. (bs *. Array.unsafe_get v j))
        done
      done
    end
  done;
  (* Q = P Q_h with Q_h = P_lo ... P_(hi-2), accumulated from the last
     reflector so that each one only touches the trailing block *)
  let qh = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0)) in
  for k = hi - 2 downto lo do
    if betas.(k) <> 0.0 then reflect_left qh vs.(k) betas.(k) k hi
  done;
  let q = Array.make n [||] in
  Array.iteri (fun i row -> q.(perm.(i)) <- row) qh;
  { n; q; h }

let project t x =
  let n = t.n in
  assert (Array.length x = n);
  let y = Array.make n 0.0 in
  Array.iteri
    (fun i qi ->
      let xi = x.(i) in
      if xi <> 0.0 then
        for j = 0 to n - 1 do
          y.(j) <- y.(j) +. (qi.(j) *. xi)
        done)
    t.q;
  y

let row t i = Array.copy t.q.(i)

let lift t ~re ~im ~x_re ~x_im =
  for i = 0 to t.n - 1 do
    let qi = t.q.(i) in
    let sr = ref 0.0 and si = ref 0.0 in
    for j = 0 to t.n - 1 do
      sr := !sr +. (qi.(j) *. re.(j));
      si := !si +. (qi.(j) *. im.(j))
    done;
    x_re.(i) <- !sr;
    x_im.(i) <- !si
  done

(* Solve (I + jwH)ᵀ z = d.  Gaussian elimination of M = I + jwH with
   partial pivoting between adjacent rows finishes row k of U at step k,
   the order in which the forward substitution with Uᵀ consumes it, so
   only the row under elimination is kept: O(n) scratch, O(n²) time.
   Row k + 1 of M is read straight from H: its subdiagonal entry is
   purely imaginary.  The multipliers and swaps are then applied
   transposed, last step first. *)
let solve_t t ~w d ~re ~im =
  let n = t.n and h = t.h in
  assert (Array.length d = n && Array.length re = n && Array.length im = n);
  (* the row under elimination, valid from column k on *)
  let c_re = Array.make n 0.0 and c_im = Array.make n 0.0 in
  let l_re = Array.make n 0.0 and l_im = Array.make n 0.0 in
  let swapped = Array.make n false in
  (* the right-hand side as the forward substitution reduces it *)
  let r_re = d and r_im = Array.make n 0.0 in
  c_re.(0) <- 1.0;
  Array.iteri (fun j hj -> c_im.(j) <- w *. hj) h.(0);
  for k = 0 to n - 1 do
    let ckr = c_re.(k) and cki = c_im.(k) in
    let sub = if k < n - 1 then w *. h.(k + 1).(k) else 0.0 in
    let swap = Float.abs sub > Float.abs ckr +. Float.abs cki in
    (* the pivot p and 1/p, scaled so that |p|² cannot underflow *)
    let pr = if swap then 0.0 else ckr and pi = if swap then sub else cki in
    let s = Float.abs pr +. Float.abs pi in
    if s < 1e-300 then raise (Dense.Singular k);
    let sr = pr /. s and si = pi /. s in
    let d2 = s *. ((sr *. sr) +. (si *. si)) in
    let ir = sr /. d2 and ii = -.si /. d2 in
    (* x_k = r_k / p *)
    let xr = (r_re.(k) *. ir) -. (r_im.(k) *. ii)
    and xi = (r_re.(k) *. ii) +. (r_im.(k) *. ir) in
    re.(k) <- xr;
    im.(k) <- xi;
    if k < n - 1 then begin
      (* l = (the eliminated row's entry) / p; the row that is not the
         pivot row carries on as row k + 1 *)
      let er = if swap then ckr else 0.0 and ei = if swap then cki else sub in
      let lr = (er *. ir) -. (ei *. ii) and li = (er *. ii) +. (ei *. ir) in
      l_re.(k) <- lr;
      l_im.(k) <- li;
      swapped.(k) <- swap;
      let hk = h.(k + 1) in
      (* with m = M_(k+1) j: r_j -= x u_j and c_j <- v_j - l u_j, where
         (u, v) = (m, c) after a swap and (c, m) without one *)
      if swap then
        for j = k + 1 to n - 1 do
          let mr = if j = k + 1 then 1.0 else 0.0
          and mi = w *. Array.unsafe_get hk j in
          Array.unsafe_set r_re j (Array.unsafe_get r_re j -. ((xr *. mr) -. (xi *. mi)));
          Array.unsafe_set r_im j (Array.unsafe_get r_im j -. ((xr *. mi) +. (xi *. mr)));
          Array.unsafe_set c_re j (Array.unsafe_get c_re j -. ((lr *. mr) -. (li *. mi)));
          Array.unsafe_set c_im j (Array.unsafe_get c_im j -. ((lr *. mi) +. (li *. mr)))
        done
      else
        for j = k + 1 to n - 1 do
          let mr = if j = k + 1 then 1.0 else 0.0
          and mi = w *. Array.unsafe_get hk j in
          let cr = Array.unsafe_get c_re j and ci = Array.unsafe_get c_im j in
          Array.unsafe_set r_re j (Array.unsafe_get r_re j -. ((xr *. cr) -. (xi *. ci)));
          Array.unsafe_set r_im j (Array.unsafe_get r_im j -. ((xr *. ci) +. (xi *. cr)));
          Array.unsafe_set c_re j (mr -. ((lr *. cr) -. (li *. ci)));
          Array.unsafe_set c_im j (mi -. ((lr *. ci) +. (li *. cr)))
        done
    end
  done;
  for k = n - 2 downto 0 do
    let lr = l_re.(k) and li = l_im.(k) in
    let yr = re.(k + 1) and yi = im.(k + 1) in
    let zr = re.(k) -. ((lr *. yr) -. (li *. yi))
    and zi = im.(k) -. ((lr *. yi) +. (li *. yr)) in
    if swapped.(k) then begin
      re.(k) <- yr;
      im.(k) <- yi;
      re.(k + 1) <- zr;
      im.(k + 1) <- zi
    end
    else begin
      re.(k) <- zr;
      im.(k) <- zi
    end
  done
