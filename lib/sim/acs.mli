(** Small-signal AC analysis: the circuit is linearised at a DC operating
    point (MOS devices become gm/gmb sources, gds conductances and the five
    Meyer/junction capacitances) and the complex MNA system
    (G + j w C) x = J is solved per frequency.

    The factorisation at a given frequency is exposed so that the noise
    analysis can reuse it for many right-hand sides (one injection per
    noisy device).

    Preparation splits the system into a frequency-independent base
    (conductances, controlled sources, voltage-source rows, gmin) and the
    capacitor list; under the default [Kernel] backend each sweep point
    blits the precomputed base into a reusable per-domain workspace
    ({!Linalg.Ws.cx}), adds only the [j w C] entries and factors in
    place — results are bit-identical to the [Reference] functor path. *)

type t
(** Prepared linear network. *)

val prepare : Dcop.t -> t

type factored
(** LU factorisation of Y(w) at one frequency.  Under the [Kernel]
    backend this is a handle onto the calling domain's workspace; if the
    workspace has since been re-factored for another frequency (or the
    handle crossed domains), the next solve transparently and
    deterministically re-factors first. *)

val factor : ?backend:Stamps.backend -> t -> freq:float -> factored
(** Raises [Linalg.Singular] when Y(w) loses rank (floating node,
    degenerate source loop).  [backend] defaults to [Kernel].  Thin
    wrapper over {!factor_result}. *)

val factor_result :
  ?backend:Stamps.backend -> t -> freq:float -> (factored, Sim_error.t) result
(** {!factor} with the singularity reified as
    [Error (Singular_matrix _)].  Programming errors still raise. *)

val solve_sources : factored -> Complex.t array
(** Response to the circuit's own AC sources (the [ac] magnitudes of V and
    I sources), as phasors over all MNA unknowns. *)

val solve_injection : factored -> p:string -> n:string -> Complex.t array
(** Response to a unit AC current injected from node [p] to node [n]
    (circuit AC sources zeroed).  Used for output impedance and noise
    transfer functions. *)

val voltage : t -> Complex.t array -> string -> Complex.t
(** Extract a node phasor from a solution vector (ground is 0). *)

val injection_gain2 : factored -> p:string -> n:string -> out:string -> float
(** [|V(out)|^2] for a unit AC current injected from [p] to [n] —
    equivalent to [Complex.norm2 (voltage net (solve_injection f ~p ~n)
    out)] but, under the [Kernel] backend, computed entirely inside the
    workspace without materialising the phasor vector.  This is the noise
    analysis' inner loop (one call per noisy element per frequency). *)

val transfer : ?backend:Stamps.backend -> t -> freq:float -> out:string -> Complex.t
(** One-call helper: response at node [out] to the circuit AC sources.
    Raises like {!factor}. *)

val transfer_result :
  ?backend:Stamps.backend ->
  t -> freq:float -> out:string -> (Complex.t, Sim_error.t) result
(** {!transfer} with factorisation failure reified, for frequency sweeps
    that want to skip unrepresentable points instead of aborting. *)

val output_impedance :
  ?backend:Stamps.backend -> t -> freq:float -> out:string -> Complex.t
(** V(out) for a unit current injected into [out] with sources zeroed. *)
