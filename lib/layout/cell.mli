(** A layout cell: rectangles, columns and named ports.  Cells compose by
    translation and abutment; the origin is the lower-left corner of the
    bounding box by convention (enforced by {!normalize}).

    A {e column} is [count] copies of one rectangle stacked at a fixed
    y [pitch], like a GDSII array reference: the generators draw every
    contact cut as part of a column.  Moving, merging and measuring a
    cell treat a column as one shape in closed form; only {!flatten}
    expands it into single rectangles, for the consumers that need them
    (design-rule checking and rendering). *)

type port = {
  net : string;                 (** net the port belongs to *)
  shape : Geometry.rect;        (** landing area, usually metal1 *)
}

type t

val empty : string -> t
val add_rect : t -> Geometry.rect -> t
val add_rects : t -> Geometry.rect list -> t

val add_column : t -> count:int -> pitch:int -> Geometry.rect -> t
(** [add_column t ~count ~pitch cut] adds [count] copies of [cut], the
    [k]-th moved up by [k * pitch].  Raises [Invalid_argument] when
    [count < 1] or [pitch < 0]. *)

val add_port : t -> net:string -> Geometry.rect -> t
val translate : dx:int -> dy:int -> t -> t
val merge : string -> t list -> t
(** Union of rectangles, columns and ports under a new name (no
    translation). *)

val flatten : t -> Geometry.rect list
(** Every rectangle of the cell, columns expanded.  The plain
    rectangles come first, then the columns' copies; both are listed
    most recently added first, and a column's copies from the top
    down. *)

val ports : t -> port list

val bbox : t -> int * int * int * int
(** [(x0, y0, x1, y1)]; the empty cell has a zero bbox. *)

val size : t -> int * int
(** Width and height of the bounding box, lambda. *)

val normalize : t -> t
(** Translate so the bounding box lower-left corner is the origin. *)

val ports_of_net : t -> string -> port list
val port_center : port -> int * int
val area : t -> int
(** Bounding-box area, lambda^2. *)

val rect_count : t -> int
(** Rectangles in {!flatten}. *)

val layer_area : t -> Technology.Layer.t -> int
(** Sum of rectangle areas on one layer (overlaps counted twice — the
    generators do not emit overlapping same-layer rectangles except for
    deliberate straps). *)

val layer_perimeter : t -> Technology.Layer.t -> int
(** Sum of rectangle perimeters on one layer, counted like
    {!layer_area}. *)
