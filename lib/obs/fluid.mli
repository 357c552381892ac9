(** Domain-local dynamic bindings ("fluid" variables).

    A fluid is a typed slot whose current binding is domain-local
    ([Domain.DLS]): two domains can hold conflicting values
    concurrently without observing each other.  [get] returns [None]
    when the calling domain has no binding; callers treat that as
    "fall back to the process-global default".  This is the mechanism
    behind context-local execution flags ({!Config},
    [Cache.Config], [Sim.Stamps]): resolution order is
    {e override > ctx binding > global > default}.

    Fluids register in a process-wide registry so {!capture} can
    snapshot every current binding of the calling domain generically;
    [Par.Pool] captures one snapshot per batch and installs it around
    each chunk, so dynamic scope follows work onto whichever domain
    runs it.

    DLS is per-{e domain}: systhreads within one domain share
    bindings.  Isolated scopes must run on distinct domains — the job
    server's executors are domains for exactly this reason. *)

type 'a t

val make : unit -> 'a t
(** Create a fluid with no binding on any domain, and register it for
    {!capture}.  Intended for module-initialisation time. *)

val get : 'a t -> 'a option
(** The calling domain's current binding, or [None] if unbound. *)

val with_value : 'a t -> 'a -> (unit -> 'b) -> 'b
(** [with_value t v f] runs [f] with [t] bound to [v] on the calling
    domain, restoring the previous binding on exit (also on raise).
    Nothing global changes: other domains never observe the binding
    unless it is propagated via {!capture}/{!with_snapshot}. *)

val with_opt : 'a t -> 'a option -> (unit -> 'b) -> 'b
(** [with_opt t (Some v) f] = [with_value t v f]; [with_opt t None f]
    = [f ()] (leaves any outer binding visible). *)

(** {1 Snapshots — propagating bindings across domains} *)

type snapshot

val empty : snapshot
(** A snapshot that installs nothing. *)

val capture : unit -> snapshot
(** Capture the calling domain's current binding of every registered
    fluid.  Cheap: one closure per fluid. *)

val with_snapshot : snapshot -> (unit -> 'b) -> 'b
(** [with_snapshot s f] installs every binding captured in [s] on the
    calling domain, runs [f], then restores the domain's previous
    bindings (in reverse order, also on raise). *)
