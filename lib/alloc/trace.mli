(** Tracing allocator wrapper: the allocation clock and the allocation
    log of §7.3.1.

    The paper's fault-injection methodology first runs the application
    under "a tracing allocator that generates an allocation log": whenever
    an object is freed, the log records when it was allocated and when it
    was freed, both in {e allocation time} (the count of allocations so
    far).  The log, sorted by allocation time, then drives the
    fault-injection library ({!Dh_fault.Injector}).

    This is the repository's one allocation clock.  Allocation [n] is the
    [n]-th malloc that returned an object (a NULL ticks nothing), and a
    recorder keeps the objects still live both ways: by address and by
    allocation time.  The injector counts to it to free an object early,
    and heap differencing ({!Diehard.Diagnose}) matches objects across
    replicas by it. *)

type lifetime = {
  alloc_time : int;  (** When the object was allocated (allocation time). *)
  free_time : int;  (** When it was freed (allocation time). *)
  size : int;  (** Its requested size. *)
}

type t

val wrap : Allocator.t -> t * Allocator.t
(** [wrap alloc] returns a recorder and a drop-in allocator that forwards
    to [alloc] while counting and logging.  A [free] of an address that
    holds no live object forwards and records nothing. *)

val clock : t -> int
(** The allocation time of the newest object: the number of mallocs that
    returned an object so far. *)

val alloc_time : t -> int -> int option
(** [alloc_time t addr]: the allocation time of the live object at
    [addr]. *)

val live_object : t -> int -> (int * int) option
(** [live_object t n]: allocation [n]'s address and requested size, while
    it is live. *)

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
