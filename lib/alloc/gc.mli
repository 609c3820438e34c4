(** Conservative mark-sweep collector — the Boehm-Demers-Weiser stand-in.

    The paper compares DieHard against the BDW collector as "an
    alternative trade-off in the design space between space, execution
    time, and safety guarantees" (§7.2.1).  The properties that matter
    for Table 1 and the fault-injection experiments:

    - [free] is a no-op, so double frees, invalid frees and dangling
      pointers are harmless (the object stays live while reachable);
    - reachability is computed {e conservatively}: any word in a root or
      in a live object that happens to equal an address inside the heap
      pins the object containing that address (interior pointers count);
    - object headers (size, mark and allocation bits) are stored in-band,
      immediately before each payload, so a buffer overflow can corrupt
      them → "heap metadata overwrites: undefined";
    - recycled memory is returned without clearing → "uninitialized
      reads: undefined".

    Collection triggers when allocation fails; a failed collection grows
    the heap by another arena until [heap_limit] is reached. *)

type t

val create :
  ?arena_size:int -> ?heap_limit:int -> Dh_mem.Mem.t -> t
(** Defaults: 1 MiB arenas, 256 MiB limit. *)

val allocator : t -> Allocator.t

val register_roots : t -> (unit -> int list) -> unit
(** Register a provider of root words, called at the start of every
    collection.  Applications register their live variable snapshots
    (the MiniC interpreter registers its environment; the workloads
    register their pointer tables). *)

val collect : t -> unit
(** Force a full mark-sweep collection. *)

val live_objects : t -> int
(** Number of allocated (not yet swept) objects, counted by walking the
    chunk headers in simulated memory.  Oracle: the collector and
    header-corruption tests (test_gc). *)
