(** DC operating point by Newton-Raphson on the MNA equations, with gmin
    stepping and source stepping as continuation fallbacks.  Capacitors are
    open at DC; voltage sources contribute branch-current unknowns. *)

type t
(** A converged operating point. *)

val solve :
  ?backend:Stamps.backend ->
  ?guess:(string -> float option) ->
  ?max_iter:int ->
  ?gmin:float ->
  proc:Technology.Process.t ->
  kind:Device.Model.kind ->
  Netlist.Circuit.t -> t
(** Solve for the operating point.  [guess] seeds node voltages (nodes not
    covered start at 0 V); the sizing tool passes its intended bias point
    here.  [backend] selects the linear solver (default [Kernel], the
    unboxed in-place workspace path; [Reference] is the boxed functor
    oracle, bit-identical to it).  [gmin] is the
    conductance to ground left on every node at convergence (default
    [1e-12]); the gmin-stepping ladder relaxes down to it.  Raises
    [Phys.Numerics.No_convergence] when every continuation strategy
    fails.  This is a thin wrapper over {!solve_result} kept for existing
    callers; new code that wants to degrade gracefully should match on
    the result instead. *)

val solve_result :
  ?backend:Stamps.backend ->
  ?guess:(string -> float option) ->
  ?max_iter:int ->
  ?gmin:float ->
  proc:Technology.Process.t ->
  kind:Device.Model.kind ->
  Netlist.Circuit.t -> (t, Sim_error.t) result
(** {!solve} with non-convergence reified: [Error (No_convergence _)]
    when every continuation strategy fails (the simulator never reports
    [Singular_matrix] from DC — a singular Jacobian is retried under
    gmin/source stepping first).  Programming errors (bad netlists,
    unknown nets) still raise. *)

val voltage : t -> string -> float
(** Node voltage; ground is 0. Raises [Invalid_argument] on unknown nets. *)

val vsource_current : t -> string -> float
(** Branch current through a voltage source (flowing p -> n inside the
    source). *)

val device_op : t -> string -> Device.Op.t
(** Operating point of a MOS device, by device name.  Raises [Not_found]. *)

val device_ops : t -> (string * Device.Op.t) list
val iterations : t -> int
(** Total Newton iterations spent (including continuation phases). *)

val indexing : t -> Indexing.t
val circuit : t -> Netlist.Circuit.t
val process : t -> Technology.Process.t
val model_kind : t -> Device.Model.kind
val supply_current : t -> string -> float
(** Convenience: |current| drawn from the named supply voltage source. *)

val pp : Format.formatter -> t -> unit
(** Operating-point report: node voltages and device summaries. *)
