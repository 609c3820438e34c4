(** Trace driver: runs a {!Profile.t} against any allocator.

    The driver is the synthetic mutator: it allocates objects with the
    profile's size mix, touches them (writes then reads a fraction of
    their bytes through simulated memory), performs the profile's
    between-ops compute, and frees objects when their geometric lifetimes
    expire.  Everything is deterministic given the seed, and the
    computation produces a checksum so the work cannot be elided.

    The benchmark harness times this function under each allocator to
    regenerate Figure 5; the checksum equality across allocators doubles
    as a correctness check (a well-behaved workload must compute the same
    result no matter the memory manager). *)

type result = {
  checksum : int;  (** Allocator-independent for well-behaved profiles. *)
  ops_performed : int;  (** malloc calls actually issued. *)
  failed_allocations : int;  (** NULL returns (heap pressure). *)
  peak_live : int;  (** Peak simultaneously-live objects. *)
}

val run : ?seed:int -> Profile.t -> Dh_alloc.Allocator.t -> result
(** [run ~seed profile alloc] plays [profile.ops] ops on [alloc].  Its
    bookkeeping is int arrays indexed by op, so an op allocates nothing
    of its own beyond the allocator's work.

    Order contract: the epilogue frees the objects still live, and the
    GC root provider it registers (when [alloc] has one) returns the live
    addresses, both in {!live_order}'s order: the fold order of a
    [Hashtbl.Make] over the live addresses, in which the Figure-5 pins
    were recorded.  The free order decides which pages mesh, and the
    root order decides a collector's mark order and cache charges. *)

val live_order : peak:int -> born:int array -> int array -> int -> int array
(** [live_order ~peak ~born live n] returns the ops [live.(0 .. n-1)]
    (distinct, in any order; op [o]'s object lives at [born.(o)]) in
    the order a [Hashtbl.Make (Int)] created with 256 buckets folds
    their addresses into a list with [fun addr () acc -> addr :: acc],
    when the addresses were inserted in op order and the table's size
    peaked at [peak]: its buckets in descending index
    ([Hashtbl.hash addr land (b - 1)], where [b] is 256 doubled while
    [peak > 2b]), each bucket in ascending op.  Ops must be below 2{^32}.
    It costs O(n log n).  Oracle: test_workload checks it against a real
    [Hashtbl.Make] fold. *)

val heap_size_for : Profile.t -> int
(** A DieHard heap size comfortably serving this profile (per-class
    regions at least 4× the expected live load, M = 2). *)
