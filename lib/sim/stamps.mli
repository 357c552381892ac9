(** The compiled MNA stamp program shared by the nonlinear analyses (DC
    Newton and transient): residual accumulation (KCL currents leaving each
    node), Jacobian entries and the Newton update.  The AC analysis uses
    its own complex assembly.

    One production matrix sits behind the stamps: the unboxed
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

val device_bias :
  Device.Mos.t -> vd:float -> vg:float -> vs:float -> vb:float -> Device.Model.bias
(** Internal-polarity bias of a MOS from its node voltages. *)

type prog
(** A compiled stamp program: the circuit walk with every node name
    resolved to its MNA index and per-device model cards fetched once, so
    Newton iterates perform no string-map lookups.  Sources keep their
    {!Netlist.Element.source}, so one program serves both analyses.  The
    walk keeps the netlist's element order, which fixes the floating-point
    accumulation order. *)

val compile : Technology.Process.t -> Indexing.t -> Netlist.Circuit.t -> prog
(** Resolve the circuit against the indexing.  Raises on unknown
    voltage-source names. *)

type drive
(** What one Newton iterate stamps besides the devices: source values and
    capacitor treatment. *)

val dc : float -> drive
(** [dc alpha]: every independent source at [alpha] times its DC value,
    capacitors open. *)

val transient :
  Device.Model.kind -> prog -> time:float -> dt:float -> prev:float array ->
  drive
(** One backward-Euler step ending at [time]: sources at their [wave time]
    (DC value without a waveform), and every capacitance replaced by its
    companion [i = (c/dt) (v - v_prev)].  MOS capacitances are evaluated
    here, once per step, at the bias of the previous solution [prev] with
    the exact (unmemoized) model; the drive then serves every Newton
    iterate of the step. *)

type border
(** The bordering of a system by one extra unknown [u], the last entry of
    the iterate, and one extra row.  [u] shifts the values of some voltage
    sources; the row pins one node voltage to a target. *)

val border : shifts:(int * float) list -> node:int -> target:float -> border
(** [border ~shifts ~node ~target]: each [(row, k)] of [shifts] adds
    [k u] to the value of the voltage source whose branch row is [row]
    (its Jacobian column holds [-k] there), and the extra row is
    [V(node) - target = 0]. *)

type solver
(** A backend bound to a system size; for [Kernel], the calling domain's
    reusable workspace. *)

val solver : backend -> int -> solver

val newton_update :
  solver -> Device.Model.kind -> prog -> gmin:float -> ?border:border ->
  drive -> float array -> float array * float
(** [newton_update sv kind prog ~gmin drive x] stamps the circuit at
    iterate [x] (with [gmin] to ground on every node) and solves
    [J delta = -f].  Returns [delta] and the residual's max-norm.  Under
    [Kernel], [delta] is the workspace buffer: consume it before the next
    call.  With [border] the system, the solver and [x] have one more
    unknown than the program.  Raises [Linalg.Singular] on a singular
    Jacobian. *)
