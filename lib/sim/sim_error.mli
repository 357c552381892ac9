(** Unified simulator error type.

    The analyses historically report failure through two unrelated
    exceptions — [Phys.Numerics.No_convergence] from the DC Newton loop
    (and everything built on it) and [Linalg.Singular] from the AC
    analysis' factorisations — which forces every caller that wants to
    degrade gracefully (Monte Carlo sampling, corner sweeps, the sizing
    calibration loop) to enumerate both.  This module gives them one
    closed type, and {!Dcop.solve_result} / {!Acs.transfer_result}
    expose the analyses as
    [('a, Sim_error.t) result]; the raising entry points remain as thin
    wrappers for existing code. *)

type t =
  | No_convergence of { analysis : string; detail : string }
      (** every Newton continuation strategy failed; [analysis] names
          the entry point (e.g. ["dcop"]), [detail] carries the legacy
          exception message *)
  | Singular_matrix of { analysis : string; column : int }
      (** the MNA matrix (G at AC, I + jwH at one frequency) lost rank
          at [column] — typically a floating node or a degenerate source
          loop *)
  | Timeout of { analysis : string; after_s : float }
      (** a cooperative deadline check (see {!Exec.Ctx.check_deadline})
          fired [after_s] seconds past the request deadline; raised
          between Monte Carlo samples, corner points and flow
          iterations so a long analysis is abandoned at the next safe
          boundary rather than mid-solve *)

exception Deadline_exceeded of string * float
(** [(analysis, seconds past the deadline)] — the raising form of
    {!Timeout}, thrown by deadline checks inside analyses that still
    expose a raising API. *)

val message : t -> string
(** Human-readable one-liner. *)

val kind : t -> string
(** The constructor as a wire name: ["no_convergence"],
    ["singular_matrix"] or ["timeout"]. *)

val to_exn : t -> exn
(** The legacy exception carrying the same information:
    [Phys.Numerics.No_convergence], [Linalg.Singular] or
    {!Deadline_exceeded}.  Guarantees
    that [match f_result x with Ok v -> v | Error e -> raise (to_exn e)]
    behaves like the raising entry point. *)

val of_exn : analysis:string -> exn -> t option
(** Classify one of the simulator exceptions; [None] for anything
    else (programming errors keep propagating as exceptions).
    {!Deadline_exceeded} keeps the analysis name recorded where the
    deadline fired rather than [analysis]. *)

val pp : Format.formatter -> t -> unit
