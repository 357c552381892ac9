type t = {
  idx : Indexing.t;
  x : float array;
  mutable ops_cache : (string * Device.Op.t) list option;
      (* device operating points, computed on first access: solves that
         only need voltages (transient initial conditions, bias searches)
         skip the per-device cap/geometry assembly entirely.  The compute
         is deterministic, so the benign race of two domains filling the
         cache concurrently stores structurally identical values. *)
  iters : int;
  circ : Netlist.Circuit.t;
  proc : Technology.Process.t;
  kind : Device.Model.kind;
}

let max_abs a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 a

exception Diverged

(* One Newton solve of a compiled stamp program at fixed gmin/alpha.
   Raises [Diverged] on failure.  Iteration counts (diverged attempts
   included), damping-scale retreats and the residual at exit are
   recorded as a telemetry span when enabled.

   Under the [Kernel] backend every iterate re-stamps the calling domain's
   reusable workspace and factors it in place, so the whole Newton loop
   performs no linear-algebra allocation; [Reference] rebuilds the boxed
   functor system per iterate exactly as the original implementation. *)
let newton sv kind prog ?border ~gmin ~alpha ~max_iter x0 =
  let x = Array.copy x0 in
  let drive = Stamps.dc alpha in
  let step_limit = 0.5 in
  (* local accumulators keep the hot loop free of telemetry lookups *)
  let spent = ref 0 in
  let damped = ref 0 in
  let residual = ref infinity in
  let rec loop iter =
    if iter >= max_iter then raise Diverged
    else begin
      spent := iter + 1;
      let delta, res =
        try Stamps.newton_update sv kind prog ~gmin ?border drive x
        with Linalg.Singular _ -> raise Diverged
      in
      let m = max_abs delta in
      if Float.is_nan m then raise Diverged;
      let scale = if m > step_limit then step_limit /. m else 1.0 in
      if scale < 1.0 then Stdlib.incr damped;
      Array.iteri (fun i d -> x.(i) <- x.(i) +. scale *. d) delta;
      residual := res;
      if m *. scale < 1e-9 && !residual < 1e-9 then (x, iter + 1)
      else loop (iter + 1)
    end
  in
  if not (Obs.Config.enabled ()) then loop 0
  else
    Obs.Trace.with_span ~cat:"sim"
      ~args:[ ("gmin", Obs.Trace.Float gmin); ("alpha", Obs.Trace.Float alpha) ]
      "dcop.newton"
      (fun () ->
        let record () =
          Obs.Trace.add_arg "iters" (Obs.Trace.Int !spent);
          Obs.Trace.add_arg "damped_steps" (Obs.Trace.Int !damped);
          Obs.Metrics.add "sim.dcop.newton_iters" (float_of_int !spent);
          Obs.Metrics.add "sim.dcop.damped_steps" (float_of_int !damped)
        in
        match loop 0 with
        | r ->
          record ();
          Obs.Trace.add_arg "residual" (Obs.Trace.Float !residual);
          Obs.Metrics.set "sim.dcop.exit_residual" !residual;
          r
        | exception Diverged ->
          record ();
          Obs.Trace.add_arg "diverged" (Obs.Trace.Bool true);
          Obs.Metrics.incr "sim.dcop.diverged_attempts";
          raise Diverged)

let initial_guess idx guess =
  let n = Indexing.size idx in
  let x = Array.make n 0.0 in
  Array.iteri
    (fun i name -> match guess name with Some v -> x.(i) <- v | None -> ())
    (Indexing.node_names idx);
  x

let device_ops_at proc kind circuit volt =
  List.map
    (fun (dev, d, g, s, b) ->
      let bias =
        Stamps.device_bias dev ~vd:(volt d) ~vg:(volt g) ~vs:(volt s) ~vb:(volt b)
      in
      (dev.Device.Mos.name, Device.Op.compute proc kind dev bias))
    (Netlist.Circuit.mos_devices circuit)

let record_solve ~t0 ~iters ~unknowns =
  if Obs.Config.enabled () then begin
    Obs.Metrics.incr "sim.dcop.solves";
    Obs.Metrics.observe "sim.dcop.solve_us" (Obs.Clock.monotonic_us () -. t0);
    Obs.Trace.add_arg "total_iters" (Obs.Trace.Int iters);
    Obs.Trace.add_arg "unknowns" (Obs.Trace.Int unknowns)
  end

let solve ?backend ?(guess = fun _ -> None) ?(max_iter = 100) ?(gmin = 1e-12)
    ~proc ~kind circuit =
  Obs.Trace.with_span ~cat:"sim" "dcop.solve" @@ fun () ->
  let t0 = Obs.Clock.monotonic_us () in
  let backend = Option.value backend ~default:Stamps.Kernel in
  let idx = Indexing.build circuit in
  let prog = Stamps.compile proc idx circuit in
  let sv = Stamps.solver backend (Indexing.size idx) in
  let x0 = initial_guess idx guess in
  let total_iters = ref 0 in
  let attempt ~gmin ~alpha x =
    let x, it = newton sv kind prog ~gmin ~alpha ~max_iter x in
    total_iters := !total_iters + it;
    x
  in
  let final_gmin = gmin in
  let x =
    try attempt ~gmin:final_gmin ~alpha:1.0 x0
    with Diverged ->
      Obs.Log.warn (fun m ->
        m "dcop: Newton diverged on the direct attempt, retrying with gmin \
           stepping");
      Obs.Metrics.incr "sim.dcop.gmin_stepping_runs";
      (* gmin stepping: heavy damping to ground first, relaxed gradually;
         each stage starts from the previous stage's solution. *)
      let try_gmin_stepping x0 =
        let gmins =
          List.filter (fun g -> g > final_gmin) [ 1e-2; 1e-4; 1e-6; 1e-8; 1e-10 ]
          @ [ final_gmin ]
        in
        List.fold_left (fun x gmin -> attempt ~gmin ~alpha:1.0 x) x0 gmins
      in
      (try try_gmin_stepping x0
       with Diverged ->
         Obs.Log.warn (fun m ->
           m "dcop: gmin stepping diverged, retrying with source stepping");
         Obs.Metrics.incr "sim.dcop.source_stepping_runs";
         (* source stepping from a de-energised circuit *)
         (try
            let alphas = [ 0.0; 0.1; 0.25; 0.4; 0.55; 0.7; 0.85; 1.0 ] in
            let x =
              List.fold_left
                (fun x alpha -> attempt ~gmin:1e-9 ~alpha x)
                (Array.make (Indexing.size idx) 0.0)
                alphas
            in
            attempt ~gmin:final_gmin ~alpha:1.0 x
          with Diverged ->
            Obs.Metrics.incr "sim.dcop.failures";
            raise (Phys.Numerics.No_convergence "Dcop.solve: DC analysis failed")))
  in
  record_solve ~t0 ~iters:!total_iters ~unknowns:(Indexing.size idx);
  { idx; x; ops_cache = None; iters = !total_iters; circ = circuit; proc;
    kind }

(* The bordered system: the circuit's unknowns plus [u], and the circuit's
   equations plus V(node) = target, with [u] entering the named sources.
   Pinning the output keeps a high-gain bench out of saturation, so plain
   Newton from the guess converges in a few iterates; a failure is final
   (no continuation ladder), so a bench without a null costs at most
   [null_max_iter] iterates. *)
let null_max_iter = 50

let null ?(guess = fun _ -> None) ~sources ~node ~target ~proc ~kind circuit =
  Obs.Trace.with_span ~cat:"sim" ~args:[ ("null", Obs.Trace.Str node) ]
    "dcop.solve"
  @@ fun () ->
  let t0 = Obs.Clock.monotonic_us () in
  let idx = Indexing.build circuit in
  let prog = Stamps.compile proc idx circuit in
  let n = Indexing.size idx in
  let border =
    Stamps.border
      ~shifts:(List.map (fun (name, k) -> (Indexing.vsource_index idx name, k)) sources)
      ~node:(Indexing.node_index_exn idx node) ~target
  in
  let sv = Stamps.solver Stamps.Kernel (n + 1) in
  let x0 = Array.append (initial_guess idx guess) [| 0.0 |] in
  match
    newton sv kind prog ~border ~gmin:1e-12 ~alpha:1.0 ~max_iter:null_max_iter
      x0
  with
  | exception Diverged ->
    raise
      (Phys.Numerics.No_convergence
         (Printf.sprintf "Dcop.null: no V(%s) = %g within %d Newton iterations"
            node target null_max_iter))
  | x, iters ->
    record_solve ~t0 ~iters ~unknowns:(n + 1);
    let u = x.(n) in
    let circ =
      List.fold_left
        (fun c (name, k) ->
          Netlist.Circuit.update_vsource name
            (fun s -> { s with Netlist.Element.dc = s.Netlist.Element.dc +. (k *. u) })
            c)
        circuit sources
    in
    ( u,
      { idx; x = Array.sub x 0 n; ops_cache = None; iters; circ; proc; kind } )

let solve_result ?backend ?guess ?max_iter ?gmin ~proc ~kind circuit =
  match solve ?backend ?guess ?max_iter ?gmin ~proc ~kind circuit with
  | t -> Ok t
  | exception e ->
    (match Sim_error.of_exn ~analysis:"dcop" e with
     | Some err -> Error err
     | None -> raise e)

let voltage t node =
  match Indexing.node_index t.idx node with None -> 0.0 | Some i -> t.x.(i)

let vsource_current t name = t.x.(Indexing.vsource_index t.idx name)

let device_ops t =
  match t.ops_cache with
  | Some ops -> ops
  | None ->
    let ops = device_ops_at t.proc t.kind t.circ (voltage t) in
    t.ops_cache <- Some ops;
    ops

let device_op t name = List.assoc name (device_ops t)
let iterations t = t.iters
let indexing t = t.idx
let circuit t = t.circ
let process t = t.proc
let model_kind t = t.kind
let supply_current t name = Float.abs (vsource_current t name)

let pp fmt t =
  Format.fprintf fmt "@[<v>operating point (%d Newton iterations):@," t.iters;
  Array.iteri
    (fun i name -> Format.fprintf fmt "  V(%s) = %.6f V@," name t.x.(i))
    (Indexing.node_names t.idx);
  List.iter
    (fun (name, op) -> Format.fprintf fmt "  %s: %a@," name Device.Op.pp op)
    (device_ops t);
  Format.fprintf fmt "@]"
