(** Shared MNA stamping primitives for the nonlinear analyses (DC Newton
    and transient): residual accumulation (KCL currents leaving each node)
    and Jacobian entries.  The AC analysis uses its own complex assembly.

    One production matrix sits behind the stamping calls: the unboxed
    flat-[floatarray] kernel matrix ({!Linalg.Dense_f}), stamped into a
    reusable per-domain workspace.  The boxed functor matrix
    ({!Linalg.Real}) is its test oracle: both receive the identical
    sequence of accumulations, so solver results agree bit-for-bit. *)

type backend = Kernel | Reference
(** Solver selector of the analyses.  [Kernel] is the unboxed in-place
    workspace path every analysis uses unless told otherwise;
    [Reference] is the original boxed functor path, reachable only by
    passing [~backend:Reference] explicitly (tests and the kernel
    micro-benchmarks use it as the oracle). *)

type mat =
  | Unboxed of Linalg.Dense_f.t
  | Boxed of Linalg.Real.t

type ctx = {
  idx : Indexing.t;
  jac : mat;
  f : float array;
  x : float array;  (** current iterate *)
}

val make : Indexing.t -> float array -> ctx
(** Fresh zeroed boxed Jacobian and residual around iterate [x]
    (the [Reference] backend). *)

val make_ws : Indexing.t -> Linalg.Ws.real -> float array -> ctx
(** Stamping context over a reusable workspace: clears the workspace
    matrix and right-hand side and aliases them as [jac]/[f], so repeated
    Newton iterates re-stamp the same buffers without allocating. *)

val volt : ctx -> string -> float
val add_current : ctx -> string -> float -> unit
(** Accumulate a current leaving the node into the residual. *)

val add_jac : ctx -> string -> string -> float -> unit
(** [add_jac ctx np nq v]: d(residual at np)/d(voltage at nq) += v;
    silently skipped when either node is ground. *)

val resistor : ctx -> p:string -> n:string -> r:float -> unit

val conductor : ctx -> p:string -> n:string -> g:float -> i_extra:float -> unit
(** Linear companion branch: current [g * (vp - vn) + i_extra] from [p] to
    [n] — used for capacitor companions in transient analysis. *)

val isource : ctx -> p:string -> n:string -> float -> unit
(** DC current value flowing p -> n through the source. *)

val vsource : ctx -> row:int -> p:string -> n:string -> float -> unit
(** Ideal voltage source with branch-current unknown at [row]. *)

val gmin_all : ctx -> float -> unit

val device_bias :
  Device.Mos.t -> vd:float -> vg:float -> vs:float -> vb:float -> Device.Model.bias
(** Internal-polarity bias of a MOS from its node voltages. *)

val mos :
  Technology.Process.t -> Device.Model.kind -> ctx ->
  dev:Device.Mos.t -> d:string -> g:string -> s:string -> b:string -> unit
(** Nonlinear MOS stamp: drain current residual plus gm/gds/gmb Jacobian
    entries (polarity-independent, see the model documentation). *)

type prog
(** A compiled DC stamp program: the circuit walk with every node name
    resolved to its MNA index and per-device model cards fetched once,
    so Newton iterates perform no string-map lookups.  The program
    replays the exact accumulation sequence of the name-based stamps
    above (element order preserved, capacitors open), keeping both
    backends bit-identical to the uncompiled walk. *)

val compile : Technology.Process.t -> Indexing.t -> Netlist.Circuit.t -> prog
(** Resolve the circuit against the indexing.  Raises like the
    name-based stamps on unknown nodes. *)

val run : Device.Model.kind -> prog -> ctx -> gmin:float -> alpha:float -> unit
(** Stamp one Newton iterate: residual and Jacobian of the full circuit
    at the context's [x], with all independent sources scaled by [alpha]
    and [gmin] to ground on every node. *)
