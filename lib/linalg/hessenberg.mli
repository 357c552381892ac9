(** Orthogonal reduction of a real square matrix to upper Hessenberg
    form, A = Q H Qᵀ, and the complex shifted solves with I + jwH on
    which a frequency sweep costs O(n²) per point instead of an O(n³)
    complex LU (A. J. Laub, "Efficient multivariable frequency response
    computations", IEEE TAC 1981).

    A reduction is immutable once built: the solves read it and write
    only into their own buffers, so one value can be shared by any
    number of domains. *)

type t

val reduce : float array array -> t
(** [reduce a] is A = Q H Qᵀ, Q orthogonal and H upper Hessenberg;
    [a.(i).(j)] is Aᵢⱼ.  Rows and columns that are zero off the diagonal
    are first permuted to the ends, and Householder reflections reduce
    the block between them.  [a] is not modified. *)

val project : t -> float array -> float array
(** [project t x] is Qᵀ x, a vector in the reduced coordinates. *)

val row : t -> int -> float array
(** [row t i] is row [i] of Q, i.e. Qᵀ eᵢ. *)

val lift :
  t -> re:float array -> im:float array ->
  x_re:float array -> x_im:float array -> unit
(** [lift t ~re ~im ~x_re ~x_im] writes Q y, y = re + j im, into the
    split vector [(x_re, x_im)]. *)

val solve_t :
  t -> w:float -> float array -> re:float array -> im:float array -> unit
(** [solve_t t ~w d ~re ~im] solves (I + jwH)ᵀ y = d for a real [d] and
    writes y into [(re, im)]; [d] is overwritten.  Gaussian elimination of I + jwH with
    partial pivoting between adjacent rows, O(n²) time and O(n) scratch.
    Raises {!Dense.Singular} when a pivot falls below the
    factorisations' threshold.  The transposed system serves both
    directions: cᵀ (I + jwH)⁻¹ d = ((I + jwH)⁻ᵀ c)ᵀ d. *)
