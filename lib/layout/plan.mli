(** The layout tool's two execution modes (paper Section 2):

    - {b parasitic calculation mode}: area optimisation under the shape
      constraint fixes the number of folds of every transistor and the
      width and position of every routing wire, from which all parasitic
      capacitances are computed — {e no layout is physically generated};
    - {b generation mode}: the same computation, additionally emitting the
      full cell geometry.

    The floorplan is a slicing tree whose leaves are device groups: single
    transistors (fold count chosen by the optimiser), matched differential
    pairs (interdigitated or common centroid) and ratioed mirror stacks. *)

type group =
  | Single of { spec : Motif.spec; allowed_folds : int list }
      (** candidate fold counts; the optimiser picks one.  Even counts keep
          the drain on internal strips (minimum drain capacitance). *)
  | Matched_singles of { specs : Motif.spec list; allowed_folds : int list }
      (** devices that must share the same fold choice (e.g. the two
          cascodes of a symmetric branch); placed side by side *)
  | Matched_pair of { spec : Pair.spec; allowed_folds : int list }
      (** candidate per-device finger counts *)
  | Mirror of { spec : Stack.spec; unit_scales : int list }
      (** ratioed stack; each scale k multiplies every element's unit
          count by k and divides the unit width by k, giving the area
          optimiser folding freedom while preserving the ratios *)

val group_name : group -> string

type floorplan = group Slicing.t

type mode = Parasitic_only | Generation

type net_summary = {
  net : string;
  routing_cap : float;               (** trunk + branch cap to ground, F *)
  coupling : (string * float) list;  (** to named neighbouring nets, F *)
  well_cap : float;                  (** n-well junction cap on this net, F *)
}

val net_total : net_summary -> float
(** routing + well + sum of couplings (coupling treated as ground cap in
    the single-ended estimate the sizing tool consumes). *)

type report = {
  device_styles : (string * Device.Folding.style) list;
      (** chosen folding per device name *)
  device_drains : (string * Device.Folding.geom) list;
      (** as-drawn diffusion geometry per device *)
  nets : net_summary list;
  total_w : int;  (** lambda, including the routing channel *)
  total_h : int;
  cell : Cell.t option;  (** [Some] in generation mode *)
}

val run :
  ?max_w:int -> ?max_h:int -> ?aspect:float * float ->
  mode:mode ->
  nets:Route.net_request list ->
  Technology.Process.t -> floorplan -> report
(** Raises [Failure] when no realisation satisfies the shape constraint. *)

val find_net : report -> string -> net_summary option
