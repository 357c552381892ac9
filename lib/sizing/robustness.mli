(** Corner and temperature verification of a sized amplifier: re-measure
    the key performances of a *fixed* design across process corners and
    analysis temperatures, and report spec compliance — the second half of
    the paper's reliability story (the first being the Monte Carlo
    mismatch analysis in {!Montecarlo}). *)

type point = {
  corner : Technology.Corner.t;
  temperature : float;        (** K *)
  gbw : float;                (** Hz; nan if no unity crossing *)
  phase_margin : float;       (** deg; nan likewise *)
  dc_gain_db : float;
  power : float;
  biased : bool;              (** false when the DC solve failed *)
}

type result = {
  points : point list;
  worst_gbw : float;
  worst_pm : float;
  all_biased : bool;
}

val run :
  ?corners:Technology.Corner.t list ->
  ?temperatures:float list ->
  ?ctx:Exec.Ctx.t ->
  ?jobs:int ->
  ?rebias:(Technology.Process.t -> Amp.t) ->
  ?proc:Technology.Process.t ->
  kind:Device.Model.kind ->
  spec:Spec.t ->
  Amp.t -> result
(** Defaults: the {!Technology.Corner.sweep_grid} grid — all five
    corners at 27 C, plus TT at -40 C and 85 C.  The process comes from
    [~proc] if given, else from [ctx.proc]; pool width from [?jobs]
    (deprecated override), then [ctx.jobs], then
    {!Par.Pool.default_jobs}.  Grid points are measured in parallel on
    the {!Par.Pool} domain pool; [points] is always in grid order.

    Grid points are not memoized: no point repeats inside one sweep, and
    a repeated served job is answered whole by the [serve.result] memo
    of {!Serve.Api.execute}.

    [rebias] models a tracking bias generator: it is handed the cornered
    process and must return the amp with bias voltages recomputed for it
    (see {!Folded_cascode.rebias}); without it the nominal bias voltages
    are frozen, which realistically fails skewed corners. *)

val run_result :
  ?corners:Technology.Corner.t list ->
  ?temperatures:float list ->
  ?ctx:Exec.Ctx.t ->
  ?jobs:int ->
  ?rebias:(Technology.Process.t -> Amp.t) ->
  ?proc:Technology.Process.t ->
  kind:Device.Model.kind ->
  spec:Spec.t ->
  Amp.t -> (result, Sim.Sim_error.t) Stdlib.result
(** {!run} with simulator failures (including a cooperative
    per-grid-point deadline check from [ctx]) returned as [Error]
    instead of raised. *)

val meets :
  result -> spec:Spec.t -> gbw_slack:float -> pm_slack:float -> bool
(** True when every biased point has GBW within [gbw_slack] (relative) of
    the target and PM no more than [pm_slack] degrees below. *)

val pp : Format.formatter -> result -> unit
