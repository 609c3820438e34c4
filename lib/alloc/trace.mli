(** Tracing allocator wrapper: records the allocation log of §7.3.1.

    The paper's fault-injection methodology first runs the application
    under "a tracing allocator that generates an allocation log": whenever
    an object is freed, the log records when it was allocated and when it
    was freed, both in {e allocation time} (the count of allocations so
    far).  The log, sorted by allocation time, then drives the
    fault-injection library ({!Dh_fault.Injector}). *)

type event =
  | Malloc of { alloc_time : int; size : int; addr : int }
  | Free of { at_time : int; alloc_time : int; addr : int }
      (** [at_time] is the allocation clock when [free] was called;
          [alloc_time] identifies the freed object. *)

type lifetime = {
  alloc_time : int;  (** When the object was allocated (allocation time). *)
  free_time : int;  (** When it was freed (allocation time). *)
  size : int;
}

type t

val wrap : Allocator.t -> t * Allocator.t
(** [wrap alloc] returns a recorder and a drop-in allocator that forwards
    to [alloc] while logging. *)

val events : t -> event list
(** All events, oldest first. *)

val lifetimes : t -> lifetime list
(** The paper's log: one entry per freed object, sorted by allocation
    time.  Objects never freed do not appear (they cannot be freed
    "too early" relative to a free that never happens). *)

val lifetimes_to_string : lifetime list -> string
(** The log in the line-oriented, human-readable form the [trace]
    subcommand prints (the paper's methodology writes the log to disk
    between the tracing run and the injection runs):

    {v
    # diehard lifetime log v1
    <alloc_time> <free_time> <size>
    v} *)
