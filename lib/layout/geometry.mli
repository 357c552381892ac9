(** Integer rectangle geometry on the lambda grid.  All coordinates are in
    lambda; a process converts to metres (see {!Technology.Process.um}). *)

type rect = {
  layer : Technology.Layer.t;
  x0 : int;
  y0 : int;
  x1 : int;  (** exclusive-ish upper corner; invariant x0 <= x1 *)
  y1 : int;
}

val rect : Technology.Layer.t -> x0:int -> y0:int -> x1:int -> y1:int -> rect
(** Normalises corner order.  Zero-area rectangles are allowed (used for
    pin markers). *)

val width : rect -> int
val height : rect -> int
val area : rect -> int
val translate : dx:int -> dy:int -> rect -> rect
val intersects : rect -> rect -> bool
(** Strict interior overlap (sharing an edge is not an intersection). *)

val spacing : rect -> rect -> int
(** Chebyshev-style gap between two non-overlapping rectangles: the larger
    of the x-gap and y-gap, with 0 when they touch or overlap in that
    axis.  Two rectangles that overlap return 0. *)

val union_bbox : rect -> rect -> rect
(** Bounding box of the two, tagged with the first one's layer. *)

val mirror_x : axis:int -> rect -> rect
(** Mirror across the vertical line x = axis. *)

val pp : Format.formatter -> rect -> unit
