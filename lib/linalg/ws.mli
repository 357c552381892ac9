(** Reusable solver workspaces, per domain and per system size.

    A workspace bundles the matrix, right-hand side, solution and pivot
    buffers of a dense solve so that repeated same-sized solves (Newton
    iterates, continuation steps, AC sweep points) re-stamp into the same
    memory and allocate nothing on the factor/solve path.  Storage is
    domain-local ([Domain.DLS]): every worker domain of the [Par] pool
    gets its own buffers, so no locking is needed.

    Acquisitions are counted as [linalg.ws.hits] / [linalg.ws.creates]
    metrics when telemetry is on. *)

type real = {
  jac : Dense_f.t;  (** [n x n] system matrix, re-stamped per solve *)
  rhs : float array;
  delta : float array;  (** solution vector *)
  piv : int array;
}

type cx = {
  y : Dense_c.t;  (** [n x n] complex MNA matrix *)
  cpiv : int array;
  b_re : float array;
  b_im : float array;
  x_re : float array;
  x_im : float array;
  mutable serial : int;
      (** bumped on every factorisation into [y]; a solve handle compares
          it to detect that the workspace was re-factored for another
          frequency/system since, and re-factors transparently *)
}

val real : int -> real
(** The calling domain's real workspace for [n] unknowns (created on
    first use, reused after). *)

val cx : int -> cx
(** The calling domain's complex workspace for [n] unknowns. *)
