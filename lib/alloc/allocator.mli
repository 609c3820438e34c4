(** The common allocator interface.

    Every memory manager in this repository — DieHard itself, the
    freelist baseline, the conservative GC, and the wrappers (tracing,
    fault injection) — is packaged as a first-class value of this record
    type, so that applications ({!Dh_lang} programs, the synthetic
    workloads, the replicated runtime) are written once and run unchanged
    against any of them, mirroring the paper's [LD_PRELOAD]
    interposition. *)

type object_info = {
  base : int;  (** Start address of the object's slot. *)
  size : int;  (** Reserved size of the slot in bytes. *)
  allocated : bool;  (** Whether the slot currently holds a live object. *)
}

type t = {
  name : string;
  mem : Dh_mem.Mem.t;
  malloc : int -> int;
      (** [malloc sz] returns the address of a fresh object of at least
          [sz] bytes, or {!null} when it cannot serve the request (see
          the NULL contract below). *)
  free : int -> unit;
      (** Dispose of an object.  Semantics on invalid input are the
          allocator's own: DieHard ignores, the freelist baseline exhibits
          undefined behaviour, the GC treats every free as a no-op. *)
  find_object : int -> object_info option;
      (** Classify an address: the slot containing it, if the address lies
          in this allocator's heap.  Used by access policies ({!Policy})
          and by white-box tests. *)
  owns : int -> bool;
      (** Whether the address lies anywhere in this allocator's heap area
          (live or free).  Cheaper than [find_object]. *)
  register_roots : ((unit -> int list) -> unit) option;
      (** For garbage-collected allocators only: register a provider of
          root words.  Applications that keep pointers outside the heap
          (interpreter environments, workload tables) must register them
          or the collector will reclaim their objects. *)
  stats : Stats.t;
}

val null : int
(** The NULL address: 0, which no {!Dh_mem.Mem} address space maps (its
    first mapping starts past a 16-page guard zone), so a read or write
    through it faults at address 0.

    {b The NULL contract.}  As C's [malloc], every allocator and wrapper
    returns [null], an [int] like any address, for a request it does not
    serve; a result needs no box, and a caller tests it with
    [= Allocator.null].
    - A request the heap cannot serve (its size class at the 1/M
      threshold, its arena or heap limit reached) returns [null] and
      adds exactly one to [stats.failed_mallocs].
    - A size the allocator rejects returns [null] too.  DieHard and
      adaptive reject [<= 0], freelist-lea and gc-bdw reject [< 0] and
      serve [0], and none of them counts the rejection as a failed
      malloc.  Hybrid sends [<= 0] to its freelist and counts the NULL
      of a negative size as failed.  A wrapper passes a rejected size
      through (rescue pads only sizes [>= 0]).
    - A wrapper (rescue, canary, trace, fault injection) passes [null]
      through and records nothing for it: no fill, no event, no clock
      tick.
    Oracle: the NULL contract tests (test_null) and the [null-malloc]
    MiniC corpus cases. *)

val malloc_exn : t -> int -> int
(** [malloc] that raises [Failure] on heap exhaustion — convenience for
    tests and workloads that treat OOM as a harness error. *)

val realloc : t -> int -> int -> int
(** [realloc t ptr sz] with C semantics: [realloc t null sz] is
    [malloc sz]; [realloc t ptr 0] frees and returns NULL; otherwise a
    new object is allocated, [min old_usable sz] bytes are copied, and
    the old object is freed.  A failed allocation returns NULL and
    leaves the old object live, its bytes untouched.  The old usable
    size comes from [find_object]; a [ptr] the allocator does not
    recognise behaves like C's undefined [realloc] of a foreign pointer
    — the copy is skipped and the pointer is passed to [free] (whose
    behaviour is the allocator's own). *)
