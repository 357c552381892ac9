(** Small-signal AC analysis: the circuit is linearised at a DC operating
    point (MOS devices become gm/gmb sources, gds conductances and the five
    Meyer/junction capacitances) and the complex MNA system
    Y(jw) x = (G + jwC) x = b is solved per frequency.

    {b One reduction per bench.}  {!prepare} stamps G, C and the AC
    sources b once, factors the real G, forms A = G⁻¹C and reduces it
    by Householder reflections to upper Hessenberg form A = Q H Qᵀ
    ({!Linalg.Hessenberg}, after A. J. Laub, IEEE TAC 1981).  Since
    Y(jw) = G (I + jwA), every frequency point is then one O(n²) solve
    of (I + jwH) y = Qᵀ G⁻¹ b with x = Q y, where a complex LU of Y
    would cost O(n³).

    {b Adjoint noise.}  Noise needs V(out) for one unit injection per
    noisy branch.  {!adjoint} solves the transposed system once per
    frequency, z = Y(jw)⁻ᵀ e_out: one transposed Hessenberg solve, a
    product with Q and one Gᵀ solve.  The response to a unit current
    from [p] to [n] is then z_n − z_p, and the signal gain zᵀ b comes
    from the same z.

    {b Accuracy.}  The reduction's rounding error scales with the
    condition of G rather than of Y(jw): against the complex LU per
    point (kept in the test suite as the oracle) it agrees within 1e-9
    relative on random netlists from 1 Hz to 100 GHz and on the
    Table-1 benches.  A node that only the 1e-15 S AC gmin ties to
    ground (a capacitive divider) either agrees within 1e-6 or fails
    with a typed [Singular_matrix]; a singular G always fails that way.

    {b Sharing.}  A prepared bench is immutable: every solve writes only
    into buffers it allocates, so one value may be read from any number
    of domains at once with bit-identical results. *)

type t
(** Prepared linear network. *)

val prepare : Dcop.t -> t
(** Stamp and reduce the network.  Never raises: a singular G is kept
    and reported by the first solve. *)

val transfer : t -> freq:float -> out:string -> Complex.t
(** Response at node [out] to the circuit's AC sources (the [ac]
    magnitudes of V and I sources).  Raises [Linalg.Singular] when G or
    I + jwH has no usable pivot. *)

val transfer_result :
  t -> freq:float -> out:string -> (Complex.t, Sim_error.t) result
(** {!transfer} with the singularity reified as
    [Error (Singular_matrix _)], for frequency sweeps that want to skip
    unrepresentable points instead of aborting. *)

val output_impedance : t -> freq:float -> out:string -> Complex.t
(** V(out) for a unit current injected into [out] with sources zeroed.
    Raises like {!transfer}. *)

type adjoint
(** z = Y(jw)⁻ᵀ e_out at one frequency: V(out) per unit current
    injected into each node. *)

val adjoint : t -> freq:float -> out:string -> adjoint
(** Raises like {!transfer}. *)

val injection_gain2 : adjoint -> p:string -> n:string -> float
(** [|V(out)|²] for a unit AC current injected from node [p] to node [n]
    (circuit AC sources zeroed): the noise analysis' transfer. *)

val source_gain : adjoint -> Complex.t
(** V(out) for the circuit's own AC sources, zᵀ b: {!transfer} at the
    adjoint's frequency, from the same solve. *)
