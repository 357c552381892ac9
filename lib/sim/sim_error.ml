type t =
  | No_convergence of { analysis : string; detail : string }
  | Singular_matrix of { analysis : string; column : int }
  | Timeout of { analysis : string; after_s : float }

exception Deadline_exceeded of string * float

let message = function
  | No_convergence { analysis; detail } ->
    Printf.sprintf "%s: no convergence (%s)" analysis detail
  | Singular_matrix { analysis; column } ->
    Printf.sprintf "%s: singular matrix at column %d" analysis column
  | Timeout { analysis; after_s } ->
    Printf.sprintf "%s: deadline exceeded after %.3f s" analysis after_s

let kind = function
  | No_convergence _ -> "no_convergence"
  | Singular_matrix _ -> "singular_matrix"
  | Timeout _ -> "timeout"

let to_exn = function
  | No_convergence { detail; _ } -> Phys.Numerics.No_convergence detail
  | Singular_matrix { column; _ } -> Linalg.Singular column
  | Timeout { analysis; after_s } -> Deadline_exceeded (analysis, after_s)

let of_exn ~analysis = function
  | Phys.Numerics.No_convergence detail ->
    Some (No_convergence { analysis; detail })
  | Linalg.Singular column -> Some (Singular_matrix { analysis; column })
  | Deadline_exceeded (analysis, after_s) ->
    Some (Timeout { analysis; after_s })
  | _ -> None

let pp fmt e = Format.pp_print_string fmt (message e)
