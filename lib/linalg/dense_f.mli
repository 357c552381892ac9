(** Unboxed real dense kernels: row-major flat [floatarray] storage,
    MNA stamp accumulation, in-place LU with partial pivoting and
    triangular solves into caller-provided vectors.

    This is the hot-path twin of [Dense.Make (Field.Real)].  Pivot choice,
    operation order and the singularity threshold are identical, so both
    backends produce bit-identical results; the functor remains the
    reference implementation.  With reused buffers (see {!Ws}) the
    factor/solve path allocates nothing. *)

type t
(** Mutable dense matrix over a flat [floatarray]. *)

val create : int -> int -> t
(** [create rows cols] is a zero-filled matrix. *)

val rows : t -> int
val cols : t -> int

val clear : t -> unit
(** Reset every entry to [0.0] (buffer reuse between Newton iterates). *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] accumulates [x] into [m.(i).(j)] — the MNA "stamp"
    primitive. *)

val blit : src:t -> dst:t -> unit
(** Copy [src] over [dst] (same dimensions). *)

val of_arrays : float array array -> t
val to_arrays : t -> float array array

val matvec_into : t -> float array -> y:float array -> unit
(** [matvec_into m x ~y] writes [m x] into [y] without allocating. *)

val lu_factor_in_place : t -> piv:int array -> unit
(** Factor in place with partial pivoting, destroying the matrix contents.
    [piv] is an output buffer of length [rows]; it is reset to the identity
    and records the row permutation.  Raises {!Dense.Singular} under
    exactly the same condition as the functor. *)

val lu_solve_into : t -> piv:int array -> b:float array -> x:float array -> unit
(** Forward/back substitution of a factored matrix into [x] ([x] must not
    alias [b]).  Zero allocation. *)

val lu_solve_t_into : t -> piv:int array -> b:float array -> x:float array -> unit
(** The transposed solve Aᵀ x = b from the same factors ([x] must not
    alias [b]). *)

val lu_solve_rows : t -> piv:int array -> float array array -> float array array
(** [lu_solve_rows m ~piv x] is A⁻¹ X for X given by its rows [x], as
    rows.  It works in the rows of [x], which it takes over; every column
    comes out as {!lu_solve_into} would give it. *)
