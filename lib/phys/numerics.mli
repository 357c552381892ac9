(** Small numerical toolbox: root finding, fixed points, integration,
    interpolation and sweep generation.  These routines back the sizing
    iterations (monotonic width search, phase-margin length search), the
    measurement extraction of the simulator (unity-gain frequency search,
    crossing detection) and the noise integration. *)

exception No_convergence of string
(** Raised by iterative routines when the iteration budget is exhausted. *)

val bisect :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> float -> float -> float
(** [bisect ~f a b] finds a root of [f] in [[a, b]]; [f a] and [f b] must
    have opposite signs.  [tol] is the absolute interval tolerance
    (default 1e-12 relative to the interval size). *)

val brent :
  ?tol:float -> ?max_iter:int -> ?fa:float -> ?fb:float ->
  f:(float -> float) -> float -> float -> float
(** Brent's method: inverse-quadratic/secant with a bisection safeguard.
    Same contract as {!bisect} but converges superlinearly.  [fa] and
    [fb], when given, must be [f a] and [f b]: the bracket search that
    found [[a, b]] has usually evaluated them already, and passing them
    saves two calls of [f] without changing the result. *)

val secant :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> float -> float -> float
(** [secant ~f x0 x1] iterates the secant method from the two starting
    points.  No bracketing is required but convergence is not guaranteed;
    raises {!No_convergence} on failure. *)

val fixed_point :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> float -> float
(** [fixed_point ~f x0] iterates [x <- f x] until [|f x - x| <= tol *. (1 +
    |x|)]. *)

val monotonic_search :
  ?rel_tol:float -> ?max_iter:int ->
  f:(float -> float) -> target:float -> float -> float -> float
(** [monotonic_search ~f ~target lo hi] finds [x] with [f x = target] for
    an increasing [f], expanding [hi] geometrically if [f hi < target] and
    shrinking [lo] if [f lo > target], then bisecting.  This is the
    "simple monotonic numerical iteration" of the sizing tool. *)

val simpson : ?n:int -> f:(float -> float) -> float -> float -> float
(** [simpson ~f a b] integrates [f] over [[a, b]] with composite Simpson on
    [n] (even, default 512) intervals. *)

val integrate_log : ?points_per_decade:int -> f:(float -> float) -> float -> float -> float
(** [integrate_log ~f a b] integrates [f] over [[a, b]] ([0 < a < b]) using a
    logarithmic change of variable, suitable for noise spectral densities
    spanning many decades. *)

val logspace : float -> float -> int -> float array
(** [logspace a b n] is [n] points logarithmically spaced from [a] to [b]
    inclusive ([a, b > 0], [n >= 2]). *)

val scan_bracket :
  f:(float -> float) -> float array -> (float * float * float * float) option
(** [scan_bracket ~f points] is [Some (a, f a, b, f b)] with
    [a = points.(i - 1)] and [b = points.(i)] for the first [i >= 1] with
    [f points.(i) <= 0], or [None] when [f points.(0) <= 0] or there is
    no such [i].  [f] is called at most once per point, and the returned
    values are those calls' results, ready for {!brent}'s [?fa ?fb].  The
    scan is coarse-to-fine: [f] is tried on every 8th point, then point by
    point inside the stride where it first dropped to 0 or below, so a
    121-point sweep costs about 20 calls instead of up to 121.  The result
    equals the point-by-point scan unless [f] first drops to 0 or below
    at some point and rises again by the next point the coarse pass
    tries, i.e. within one stride. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n] points linearly spaced from [a] to [b]. *)

val interp_linear : (float * float) array -> float -> float
(** [interp_linear pts x] linearly interpolates the piecewise-linear function
    through [pts] (sorted by abscissa) at [x], clamping outside the range. *)

val close : ?rel:float -> ?abs_tol:float -> float -> float -> bool
(** [close a b] is true when [a] and [b] agree within relative tolerance
    [rel] (default 1e-9) or absolute tolerance [abs_tol] (default 1e-12). *)
