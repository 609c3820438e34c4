(** The freelist baseline: a Lea-style allocator with in-band metadata.

    This models the "default malloc" the paper compares against (the GNU
    libc allocator is a variant of the Lea allocator, §7.2.1): boundary
    tags stored {e immediately adjacent} to payloads inside the simulated
    heap, segregated free-list bins threaded through the payloads of free
    chunks, splitting, and forward coalescing.

    Because all metadata lives in-band, this allocator exhibits the exact
    failure modes of Table 1's "GNU libc" column:
    - a buffer overflow of one byte past an object can corrupt the next
      chunk's header ("heap metadata overwrites" → undefined);
    - freeing an invalid pointer interprets whatever bytes precede it as a
      header ("invalid frees" → undefined);
    - freeing twice inserts the chunk into its bin twice, corrupting the
      list ("double frees" → undefined);
    - freed objects are reused LIFO, so dangling pointers are overwritten
      almost immediately ("dangling pointers" → undefined).

    Simplification vs. dlmalloc: chunks coalesce forward only (no
    prev-in-use bit / footer walk).  This does not change any failure mode
    above and keeps fragmentation acceptable for the paper's workloads.

    The [Windows] variant models the default Windows XP allocator the
    paper measures in §7.2.2 — "substantially slower than the Lea
    allocator": it reserves an in-heap header at the start of each arena
    and read-modify-writes its fields on every operation, the bookkeeping
    traffic that makes its per-op cost markedly higher. *)

type variant =
  | Lea  (** Segregated bins, the Linux/GNU-libc stand-in. *)
  | Windows
      (** Lea's segregated bins plus a 64-byte in-heap arena header that
          every operation read-modify-writes: the Windows-XP stand-in. *)

type t

val create :
  ?variant:variant ->
  ?arena_size:int ->
  ?heap_limit:int ->
  Dh_mem.Mem.t ->
  t
(** [create mem] builds a freelist heap on [mem].  [arena_size] (default
    1 MiB) is the granularity at which the allocator [mmap]s arenas;
    [heap_limit] (default 256 MiB) caps total arena bytes, after which
    [malloc] returns NULL.  Oracle: only the arena and heap-limit tests
    set either (test_freelist). *)

val allocator : t -> Allocator.t
(** Package as the common interface. *)

val chunk_walk : t -> (base:int -> size:int -> allocated:bool -> unit) -> unit
(** Walk every chunk of every arena in address order, reading headers from
    simulated memory — so a corrupted header is visible to the walk (it
    stops a walk that leaves the arena).  Oracle: the heap-corruption
    tests read a smashed header through it (test_freelist,
    test_extensions). *)
