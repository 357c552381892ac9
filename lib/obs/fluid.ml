(* Domain-local dynamic bindings ("fluid" variables).

   A fluid is a typed slot whose current value lives in [Domain.DLS]:
   each domain sees its own binding, so two domains can hold conflicting
   values at the same time without either observing the other.  [get]
   returns [None] when the calling domain has no binding, which callers
   treat as "fall back to the process-global default" — that split is
   what lets a concurrent job service run N jobs with conflicting
   cache/telemetry switches on one daemon.

   Every fluid created through [make] also registers itself in a global
   registry so [capture] can snapshot *all* current bindings of the
   calling domain generically, without knowing their types.  The pool
   captures one snapshot per batch and re-installs it around each chunk
   on whichever domain ends up running it (a worker or the submitter),
   so dynamic scope follows the work, not the domain.

   A captured value is an immutable ['a option]; installing it on
   another domain shares the (immutable) payload, never mutable state.

   Caveat: DLS is per-*domain*, and systhreads within one domain share
   it.  Code that needs isolated bindings must run on distinct domains
   (the job server spawns executor domains for exactly this reason);
   binding a fluid from two systhreads of the same domain interleaves
   their scopes. *)

type 'a t = { key : 'a option Domain.DLS.key }

(* A registry entry, closed over its fluid's key:
   calling it on domain A captures A's current binding and returns an
   installer; calling the installer on domain B saves B's previous
   binding, installs A's, and returns a restorer for B. *)
type entry = unit -> unit -> unit -> unit

let registry : entry array Atomic.t = Atomic.make [||]
let registry_lock = Mutex.create ()

let make () =
  let key = Domain.DLS.new_key (fun () -> None) in
  let entry () =
    let v = Domain.DLS.get key in
    fun () ->
      let prev = Domain.DLS.get key in
      Domain.DLS.set key v;
      fun () -> Domain.DLS.set key prev
  in
  Mutex.protect registry_lock (fun () ->
      Atomic.set registry (Array.append (Atomic.get registry) [| entry |]));
  { key }

let get t = Domain.DLS.get t.key

let with_value t v f =
  let prev = Domain.DLS.get t.key in
  Domain.DLS.set t.key (Some v);
  Fun.protect ~finally:(fun () -> Domain.DLS.set t.key prev) f

let with_opt t v f =
  match v with None -> f () | Some v -> with_value t v f

type snapshot = (unit -> unit -> unit) array

let empty : snapshot = [||]

let capture () = Array.map (fun entry -> entry ()) (Atomic.get registry)

let with_snapshot snap f =
  let restores = Array.map (fun install -> install ()) snap in
  Fun.protect
    ~finally:(fun () ->
      for i = Array.length restores - 1 downto 0 do
        restores.(i) ()
      done)
    f
