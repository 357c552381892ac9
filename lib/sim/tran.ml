module El = Netlist.Element

type result = {
  ts : float array;
  idx : Indexing.t;
  n : int; (* unknowns per time point *)
  states : float array; (* unknown [i] of time point [k] at [k * n + i] *)
}

let source_value (s : El.source) t =
  match s.El.wave with Some w -> w t | None -> s.El.dc

(* Step control.  A step is accepted when the local truncation error of
   every node voltage, estimated from the predictor-corrector difference,
   is within [abstol + reltol |v|]. *)
let abstol = 100e-6
let reltol = 1e-3

(* A step below [floor] times the maximum step is a failure.  The first
   steps after t = 0 and after a source edge are [restart] times the
   maximum, and an edge is located to within that width. *)
let floor = 1e-9
let restart = 1.0 /. 1024.0

(* A step grows to at most [max_growth] times the previous one
   (variable-step BDF2 is zero-stable below 1 + sqrt 2), and to [safety]
   times what the error estimate allows. *)
let max_growth = 2.0
let safety = 0.9

(* [tstop / dt] above [max_ratio] is refused up front, and a run that
   needs more than [budget * tstop / dt + budget_slack] steps fails. *)
let max_ratio = 1e5
let budget = 50
let budget_slack = 1000
let max_newton = 80

(* A Newton update below [newton_tol] ends the iteration: a hundredth of
   [abstol], and convergence is quadratic from the predictor, so what is
   left is far below it. *)
let newton_tol = 1e-6

(* The accepted time points, in buffers that double when full. *)
module Buf = struct
  type t = {
    n : int;
    mutable ts : float array;
    mutable xs : float array;
    mutable len : int;
  }

  let create n =
    { n; ts = Array.make 64 0.0; xs = Array.make (64 * n) 0.0; len = 0 }

  let push b t x =
    if b.len = Array.length b.ts then begin
      let ts = Array.make (2 * b.len) 0.0
      and xs = Array.make (2 * b.len * b.n) 0.0 in
      Array.blit b.ts 0 ts 0 b.len;
      Array.blit b.xs 0 xs 0 (b.len * b.n);
      b.ts <- ts;
      b.xs <- xs
    end;
    b.ts.(b.len) <- t;
    Array.blit x 0 b.xs (b.len * b.n) b.n;
    b.len <- b.len + 1
end

(* Full Newton from [x], in place; returns whether the update fell below
   [newton_tol] within [max_newton] iterations (a non-finite update ends
   it at once), and the iterations taken. *)
let newton sv kind prog ~gmin ~time drive x =
  let rec loop iter =
    if iter >= max_newton then (false, iter)
    else begin
      let delta, _ =
        try Stamps.newton_update sv kind prog ~gmin drive x
        with Linalg.Singular _ ->
          raise (Phys.Numerics.No_convergence
                   (Printf.sprintf "Tran: singular Jacobian at t=%g" time))
      in
      let m =
        Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 delta
      in
      if not (Float.is_finite m) then (false, iter + 1)
      else begin
        let scale = if m > 0.5 then 0.5 /. m else 1.0 in
        Array.iteri (fun i d -> x.(i) <- x.(i) +. scale *. d) delta;
        if m *. scale < newton_tol then (true, iter + 1) else loop (iter + 1)
      end
    end
  in
  loop 0

(* The DC operating point at t = 0 uses the waveform values at time 0
   rather than the DC fields. *)
let circuit_at_t0 circuit =
  let freeze (s : El.source) = { s with El.dc = source_value s 0.0 } in
  let rewrite = function
    | El.Isource ({ i; _ } as r) -> El.Isource { r with i = freeze i }
    | El.Vsource ({ v; _ } as r) -> El.Vsource { r with v = freeze v }
    | (El.Mos _ | El.Resistor _ | El.Capacitor _) as e -> e
  in
  List.fold_left
    (fun acc e -> Netlist.Circuit.add acc (rewrite e))
    (Netlist.Circuit.create ~title:(Netlist.Circuit.title circuit))
    (Netlist.Circuit.elements circuit)

(* The method of a step of [h] after the accepted points [hist] (most
   recent first, as [(t, x)]).  From a single point it is backward Euler
   with the point itself as predictor and no error estimate; from two,
   backward Euler with a linear predictor; from three, variable-step BDF2
   with a quadratic predictor.  Returns the order, the derivative
   coefficients and the solutions they weigh (for [Stamps.transient]), the
   predictor, and the factor that turns the predictor-corrector difference
   into the corrector's local truncation error (Milne's device). *)
let method_for ~h hist =
  match hist with
  | [ (_, x1) ] -> (0, [| 1.0 /. h; -1.0 /. h |], [| x1 |], Array.copy x1, 0.0)
  | [ (t1, x1); (t2, x2) ] ->
    (* errors: corrector h^2 / 2 y'', predictor h (h + h1) / 2 y'' *)
    let h1 = t1 -. t2 in
    let r = h /. h1 in
    let pred = Array.mapi (fun i v -> v +. (r *. (v -. x2.(i)))) x1 in
    (1, [| 1.0 /. h; -1.0 /. h |], [| x1 |], pred, h /. ((2.0 *. h) +. h1))
  | (t1, x1) :: (t2, x2) :: (t3, x3) :: _ ->
    let h1 = t1 -. t2 and h2 = t2 -. t3 in
    let w = h /. h1 in
    let coeffs =
      [| (1.0 +. (2.0 *. w)) /. ((1.0 +. w) *. h);
         -.(1.0 +. w) /. h;
         w *. w /. ((1.0 +. w) *. h) |]
    in
    (* the quadratic through the three points, at t1 + h *)
    let d1 = h and d2 = h +. h1 and d3 = h +. h1 +. h2 in
    let l1 = d2 *. d3 /. (h1 *. (h1 +. h2))
    and l2 = -.(d1 *. d3) /. (h1 *. h2)
    and l3 = d1 *. d2 /. ((h1 +. h2) *. h2) in
    let pred =
      Array.mapi (fun i v -> (l1 *. v) +. (l2 *. x2.(i)) +. (l3 *. x3.(i))) x1
    in
    (* errors, as multiples of the third derivative: corrector
       h^2 (h + h1)^2 / (6 (2h + h1)), predictor h (h + h1) (h + h1 + h2) / 6 *)
    let cc = h *. h *. d2 *. d2 /. (6.0 *. ((2.0 *. h) +. h1)) in
    let cp = d1 *. d2 *. d3 /. 6.0 in
    (2, coeffs, [| x1; x2 |], pred, cc /. (cp +. cc))
  | [] -> invalid_arg "Tran.method_for: no history"

(* The first edge of the source waveforms [waves] in (t0, t1]: an
   interval (a, b] of width at most [width] reached by halving, each half
   kept holding three quarters of the largest change of any waveform over
   its parent.  A change that shrinks with the interval (a smooth
   waveform) is no edge; a jump never does. *)
let edge_in waves ~width t0 t1 =
  let change a b =
    Array.fold_left (fun m w -> Float.max m (Float.abs (w b -. w a))) 0.0 waves
  in
  let rec locate a b d =
    let m = 0.5 *. (a +. b) in
    let dl = change a m in
    if dl >= 0.75 *. d then narrow a m dl
    else
      let dr = change m b in
      if dr >= 0.75 *. d then narrow m b dr else None
  and narrow a b d = if b -. a <= width then Some (a, b) else locate a b d in
  let d = change t0 t1 in
  if d > 0.0 then locate t0 t1 d else None

let check_inputs ~tstop ~dt =
  if not (Float.is_finite tstop && tstop > 0.0) then
    invalid_arg
      (Printf.sprintf "Tran.run: tstop = %g must be finite and positive" tstop);
  if not (Float.is_finite dt && dt > 0.0) then
    invalid_arg
      (Printf.sprintf "Tran.run: dt = %g must be finite and positive" dt);
  if tstop /. dt > max_ratio then
    invalid_arg
      (Printf.sprintf "Tran.run: dt = %g is below tstop / %g" dt max_ratio)

let run ?backend ?dt ?(guess = fun _ -> None) ?(gmin = 1e-12)
    ?(stop = fun _ _ -> false) ~proc ~kind ~tstop circuit =
  let hmax = match dt with Some d -> d | None -> tstop /. 50.0 in
  check_inputs ~tstop ~dt:hmax;
  let hmax = Float.min hmax tstop in
  let hmin = floor *. hmax in
  let max_steps =
    (budget * int_of_float (Float.ceil (tstop /. hmax))) + budget_slack
  in
  let backend = Option.value backend ~default:Stamps.Kernel in
  let dc = Dcop.solve ~backend ~guess ~gmin ~proc ~kind (circuit_at_t0 circuit) in
  let idx = Dcop.indexing dc in
  let n = Indexing.size idx and nodes = Indexing.node_count idx in
  let x0 =
    Array.init n (fun i ->
      if i < nodes then Dcop.voltage dc (Indexing.node_names idx).(i) else 0.0)
  in
  let buf = Buf.create n in
  Buf.push buf 0.0 x0;
  let prog = Stamps.compile proc idx circuit in
  let sv = Stamps.solver backend n in
  let iters = ref 0 and rejected = ref 0 in
  let fail t what =
    raise
      (Phys.Numerics.No_convergence (Printf.sprintf "Tran: %s at t=%g" what t))
  in
  let waves =
    List.filter_map
      (function
        | El.Vsource { v = { El.wave; _ }; _ }
        | El.Isource { i = { El.wave; _ }; _ } ->
          wave
        | El.Mos _ | El.Resistor _ | El.Capacitor _ -> None)
      (Netlist.Circuit.elements circuit)
    |> Array.of_list
  in
  let width = restart *. hmax in
  (* [hist]: the last accepted points, at most three, most recent first;
     a single one starts the integration (t = 0, or past an edge) *)
  let rec go ?(retry = false) hist h =
    let t, _ = List.hd hist in
    if h < hmin then fail t (Printf.sprintf "step below %g s" hmin);
    (* the last two steps split what is left rather than leave a sliver *)
    let rest = tstop -. t in
    let h =
      if rest <= h then rest else if rest < 2.0 *. h then rest /. 2.0 else h
    in
    let time = if rest <= h then tstop else t +. h in
    match edge_in waves ~width t time with
    | Some (a, _) when a -. t > width ->
      attempt hist ~retry ~edge:false (a -. t) a
    | Some (_, b) ->
      (* step across the edge by backward Euler from the last point
         alone, then start afresh from the far side *)
      attempt [ List.hd hist ] ~retry ~edge:true (b -. t) b
    | None -> attempt hist ~retry ~edge:false h time
  and attempt hist ~retry ~edge h time =
    let _, x1 = List.hd hist in
    let order, coeffs, past, pred, lte = method_for ~h hist in
    let drive =
      Stamps.transient kind prog ~time ~coeffs ~hist:past ~caps_at:pred
    in
    let x = Array.copy pred in
    let converged, it = newton sv kind prog ~gmin ~time drive x in
    iters := !iters + it;
    let err = ref 0.0 in
    for i = 0 to nodes - 1 do
      let tol =
        abstol +. (reltol *. Float.max (Float.abs x.(i)) (Float.abs x1.(i)))
      in
      err := Float.max !err (lte *. Float.abs (x.(i) -. pred.(i)) /. tol)
    done;
    (* a nan error is a rejection too *)
    if not (converged && !err <= 1.0) then begin
      incr rejected;
      go ~retry:true hist (h /. 2.0)
    end
    else begin
      Buf.push buf time x;
      let volt node =
        match Indexing.node_index idx node with None -> 0.0 | Some i -> x.(i)
      in
      if time >= tstop || stop time volt then ()
      else if buf.Buf.len > max_steps then fail time "step budget exhausted"
      else if edge then go [ (time, x) ] width
      else begin
        (* no growth right after a rejection: the step that just failed
           would fail again *)
        let grow =
          if order = 0 then 1.0
          else
            Float.min
              (if retry then 1.0 else max_growth)
              (safety *. (!err ** (-1.0 /. float_of_int (order + 1))))
        in
        let hist = (time, x) :: List.filteri (fun i _ -> i < 2) hist in
        go hist (Float.min hmax (h *. grow))
      end
    end
  in
  (* counted also when the run fails *)
  Fun.protect
    ~finally:(fun () ->
      if Obs.Config.enabled () then begin
        Obs.Metrics.add "sim.tran.steps" (float_of_int (buf.Buf.len - 1));
        Obs.Metrics.add "sim.tran.rejected" (float_of_int !rejected);
        Obs.Metrics.add "sim.tran.newton_iters" (float_of_int !iters)
      end)
    (fun () -> go [ (0.0, x0) ] width);
  let len = buf.Buf.len in
  { ts = Array.sub buf.Buf.ts 0 len;
    idx;
    n;
    states = Array.sub buf.Buf.xs 0 (len * n) }

let times r = r.ts

let waveform r node =
  match Indexing.node_index r.idx node with
  | None -> Array.map (fun _ -> 0.0) r.ts
  | Some i -> Array.init (Array.length r.ts) (fun k -> r.states.((k * r.n) + i))

let value_at r node t =
  let w = waveform r node in
  let pts = Array.mapi (fun i v -> (r.ts.(i), v)) w in
  Phys.Numerics.interp_linear pts t

let crossing ?(after = 0.0) r node ~level ~falling =
  let w = waveform r node and ts = r.ts in
  let past v = if falling then v <= level else v >= level in
  let rec go i =
    if i >= Array.length w then None
    else if ts.(i) < after || not (past w.(i)) then go (i + 1)
    else if i = 0 || past w.(i - 1) then Some ts.(i)
    else
      let frac = (level -. w.(i - 1)) /. (w.(i) -. w.(i - 1)) in
      Some (ts.(i - 1) +. (frac *. (ts.(i) -. ts.(i - 1))))
  in
  go 0

let max_slope r node =
  let w = waveform r node in
  let rising = ref 0.0 and falling = ref 0.0 in
  for i = 1 to Array.length w - 1 do
    let slope = (w.(i) -. w.(i - 1)) /. (r.ts.(i) -. r.ts.(i - 1)) in
    if slope > !rising then rising := slope;
    if -.slope > !falling then falling := -.slope
  done;
  (!rising, !falling)

let settling_time r node ~target ~tol =
  let w = waveform r node in
  let n = Array.length w in
  (* walk backwards to find the last excursion outside the band *)
  let rec last_out i =
    if i < 0 then None
    else if Float.abs (w.(i) -. target) > tol then Some i
    else last_out (i - 1)
  in
  match last_out (n - 1) with
  | None -> Some 0.0
  | Some i when i = n - 1 -> None
  | Some i -> Some r.ts.(i + 1)
