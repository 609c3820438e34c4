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

val heap_size_for : Profile.t -> int
(** A DieHard heap size comfortably serving this profile (per-class
    regions at least 4× the expected live load, M = 2). *)
