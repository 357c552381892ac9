(** A flat circuit: a titled list of elements over named nets.  Provides
    builder helpers, net bookkeeping, parasitic annotation (used by the
    layout extractor) and a SPICE-deck printer. *)

type t

val create : title:string -> t
val title : t -> string
val elements : t -> Element.t list
(** In insertion order. *)

val add : t -> Element.t -> t
val add_mos :
  t -> dev:Device.Mos.t -> d:string -> g:string -> s:string -> b:string -> t
val add_resistor : t -> name:string -> p:string -> n:string -> r:float -> t
val add_capacitor : t -> name:string -> p:string -> n:string -> c:float -> t
val add_isource : t -> name:string -> p:string -> n:string -> Element.source -> t
val add_vsource : t -> name:string -> p:string -> n:string -> Element.source -> t

val nodes : t -> string list
(** All nets except ground, sorted, deduplicated. *)

val mos_devices : t -> (Device.Mos.t * string * string * string * string) list
(** All MOS elements as [(dev, d, g, s, b)]. *)

val find_mos : t -> string -> Device.Mos.t
(** Find a MOS device by name.  Raises [Not_found]. *)

val map_mos : (Device.Mos.t -> Device.Mos.t) -> t -> t
(** Rewrite every MOS device (e.g. grid snapping, style updates). *)

val update_mos : string -> (Device.Mos.t -> Device.Mos.t) -> t -> t
(** Rewrite one MOS device by name. *)

val update_vsource : string -> (Element.source -> Element.source) -> t -> t
(** Rewrite the value of one voltage source by name. *)

val add_node_cap : t -> name:string -> node:string -> c:float -> t
(** Attach a parasitic capacitor from [node] to ground; zero or negative
    values are ignored. *)

val total_cap_to_ground : t -> string -> float
(** Sum of explicit capacitors between the node and ground. *)

val element_count : t -> int
val pp_spice : Format.formatter -> t -> unit
val to_spice : t -> string
