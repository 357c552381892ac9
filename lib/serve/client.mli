(** Minimal blocking client for the {!Server} daemon — used by the
    [losac job] subcommand and the test suite. *)

type t

exception Protocol_error of string
(** The server closed mid-conversation or sent an undecodable frame. *)

exception Connect_failed of string
(** No daemon answers at the address (missing socket, refused port,
    unknown host).  The message names the address and the reason. *)

val connect : ?max_frame:int -> string -> t
(** Connect to a Unix-domain socket path.
    @raise Connect_failed when nothing listens there. *)

val connect_tcp : ?max_frame:int -> host:string -> port:int -> unit -> t
(** Connect to [host:port] over TCP.
    @raise Connect_failed as {!connect}. *)

val close : t -> unit

val call :
  ?on_event:(Protocol.event -> unit) -> t -> Protocol.request ->
  Protocol.response
(** Submit one request and block until its final response, feeding
    interleaved [ack]/[started]/[telemetry] events to [on_event].
    @raise Protocol_error as above
    @raise Frame.Oversized when the server answers past [max_frame]. *)

val submit : t -> Protocol.request -> unit
(** Fire one request without waiting (pipelining). *)

val await : ?on_event:(Protocol.event -> unit) -> t -> int -> Protocol.response
(** Read messages until the final response for the given request id
    ([-1] accepts any); events go to [on_event].  Final responses for
    {e other} ids are discarded — with several executors finals arrive
    in nondeterministic order, so pipelined submissions that must all
    be observed should each be awaited in expected completion order
    (admission rejections and cancel acknowledgements overtake
    execution) or use one connection per in-flight request. *)
