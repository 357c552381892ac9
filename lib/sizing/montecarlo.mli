(** Statistical (Monte Carlo) verification — the paper's "statistical
    analysis to check the reliability of the synthesized circuit".

    Each sample perturbs every transistor's threshold voltage and current
    factor with independent Gaussian mismatch of Pelgrom standard
    deviation (avt / sqrt(WL), abeta / sqrt(WL)) and re-measures the
    offset, DC gain and GBW on the simulator.

    Samples are evaluated on the {!Par.Pool} domain pool.  Sample [i]
    draws its randomness from SplitMix64 stream [(seed, i)], so the run
    is reproducible {e and} schedule independent: [run ~jobs:k] returns
    exactly the same samples, in the same order, for every [k]. *)

type sample = {
  offset : float;     (** input-referred offset, V *)
  dc_gain_db : float;
  gbw : float;        (** Hz; nan when the gain never crosses unity *)
}

type stats = {
  n : int;
  mean : float;
  std : float;
  minimum : float;
  maximum : float;
}

type result = {
  samples : sample list;
  offset_stats : stats;
  gain_stats : stats;
  gbw_stats : stats;
  predicted_offset_sigma : float;
      (** analytic input-pair-dominated prediction:
          sqrt(2) sigma_vt(P1) combined with the mirror's contribution
          scaled by gm ratios *)
}

val sample_amp :
  proc:Technology.Process.t -> seed:int -> int -> Amp.t -> Amp.t
(** [sample_amp ~proc ~seed i amp] is sample [i]'s mismatched copy of
    [amp]: every device perturbed from SplitMix64 stream [(seed, i)], as
    {!run} measures it. *)

val stats_of : float list -> stats
(** Single-pass (Welford) summary; [std] is the unbiased (n-1) sample
    standard deviation.  Raises on the empty list. *)

val run :
  ?seed:int -> ?n:int -> ?ctx:Exec.Ctx.t -> ?jobs:int ->
  ?proc:Technology.Process.t ->
  kind:Device.Model.kind ->
  spec:Spec.t ->
  Amp.t -> result
(** Default 50 samples; the seed resolves like every other execution
    switch (explicit [?seed] > [ctx.seed] > [LOSAC_SEED] > 42, see
    {!Exec.Ctx.seed}).  The process comes from [~proc] if
    given, else from [ctx.proc]; pool width from [?jobs] (deprecated
    override), then [ctx.jobs], then {!Par.Pool.default_jobs}.  [ctx]'s
    cache/telemetry switches are applied for the duration of the run.

    Samples are not memoized: no sample repeats inside one run, and a
    repeated served job is answered whole by the [serve.result] memo of
    {!Serve.Api.execute}.  Raises if no sample converges. *)

val run_result :
  ?seed:int -> ?n:int -> ?ctx:Exec.Ctx.t -> ?jobs:int ->
  ?proc:Technology.Process.t ->
  kind:Device.Model.kind ->
  spec:Spec.t ->
  Amp.t -> (result, Sim.Sim_error.t) Stdlib.result
(** {!run} with simulator failures (no convergence, singular matrix,
    deadline exceeded) returned as [Error] instead of raised — the
    entry point the job server uses so it never catches bare
    exceptions.  When [ctx] carries a deadline, it is checked
    cooperatively between samples. *)

val pp : Format.formatter -> result -> unit
