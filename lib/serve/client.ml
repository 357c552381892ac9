module J = Obs.Json
module P = Protocol

type t = { fd : Unix.file_descr; max_frame : int }

exception Protocol_error of string
exception Connect_failed of string

let open_socket domain addr ~target =
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  try Unix.connect fd addr; fd
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise
      (Connect_failed
         (Printf.sprintf "cannot connect to %s: %s" target (Unix.error_message e)))

let connect ?(max_frame = Frame.max_frame_default) path =
  { fd = open_socket Unix.PF_UNIX (Unix.ADDR_UNIX path) ~target:path; max_frame }

let connect_tcp ?(max_frame = Frame.max_frame_default) ~host ~port () =
  let target = Printf.sprintf "%s:%d" host port in
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> (
      try Unix.inet_addr_of_string host
      with Failure _ ->
        raise (Connect_failed (Printf.sprintf "cannot resolve host %s" host)))
  in
  { fd = open_socket Unix.PF_INET (Unix.ADDR_INET (addr, port)) ~target; max_frame }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let submit t req = Frame.write t.fd (J.to_string (P.request_to_json req))

let next_message t =
  match Frame.read ~max_frame:t.max_frame t.fd with
  | None -> raise (Protocol_error "server closed the connection")
  | Some payload ->
    (match J.parse payload with
     | Error msg -> raise (Protocol_error ("unparseable frame: " ^ msg))
     | Ok json ->
       (match P.message_of_json json with
        | Ok m -> m
        | Error msg -> raise (Protocol_error msg)))

let await ?on_event t rid =
  let rec loop () =
    match next_message t with
    | P.Event e ->
      Option.iter (fun f -> f e) on_event;
      loop ()
    | P.Final r ->
      (* With several executors, finals for different ids arrive in any
         order (and admission rejections can overtake); match on the
         id. *)
      if r.P.rid = rid || rid = -1 then r else loop ()
  in
  loop ()

let call ?on_event t req =
  submit t req;
  await ?on_event t req.P.id
