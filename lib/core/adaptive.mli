(** Adaptive DieHard: size-class regions that grow on demand.

    The paper's §9 calls out the main practical limitation of the
    original algorithm — "the DieHard algorithm as implemented
    initializes the heap based on the maximum size the heap will
    eventually grow to" — and proposes "an adaptive version of DieHard
    that grows memory regions dynamically as objects are allocated".
    This module implements that version (it is also the direction the
    authors' later DieHarder allocator took).

    Each size class owns a chain of {e miniheaps}.  A miniheap is an
    independently-mapped region with its own out-of-band bitmap.  The
    class invariant is global: the class's total live objects never
    exceed [1/M] of its total capacity; when an allocation would cross
    the threshold, a new miniheap with twice the capacity of the last is
    mapped (geometric growth, so the address-space cost stays within a
    constant factor of the live size instead of a fixed worst case).

    Allocation picks a slot uniformly at random over the {e whole}
    class — every slot in every miniheap is equally likely — so all of
    §6's probabilistic guarantees hold with the class's current
    capacity standing in for the fixed region size.  Deallocation
    validates exactly like the fixed heap: slot-aligned, currently
    allocated, otherwise ignored.  Large objects (> 16 KB) go through
    {!Heap}'s own guarded-mapping path ({!Heap.large_malloc}). *)

type t

val create : ?min_headroom:int -> ?seed:int -> Dh_mem.Mem.t -> t
(** [create mem] builds an adaptive heap with [M = 2], a first miniheap
    of 64 objects per class, and no random fill (stand-alone mode);
    [seed] feeds the allocator's generator (default 1).

    [min_headroom] (default 0) is the space-reliability dial: each class
    additionally keeps at least this many {e free} slots.  Theorem 2's
    masking probability is [1 - A/Q] with [Q] the class's free slots, so
    a tightly-grown heap ([Q ≈ (M-1) x live]) protects far less than the
    paper's fixed configuration ([Q = region/(M x size)], huge).  Setting
    [min_headroom] to tens of thousands of slots restores fixed-heap
    protection at the corresponding address-space cost — the §4.5
    trade-off made explicit (quantified by `bench inject`). *)

val malloc : t -> int -> int option
(** Never returns NULL for small objects unless the simulated address
    space itself is exhausted — the adaptive heap grows instead. *)

val free : t -> int -> unit

val allocator : t -> Dh_alloc.Allocator.t

val stats : t -> Dh_alloc.Stats.t

(** {1 Introspection} *)

val class_capacity : t -> class_:int -> int
(** Total slots across the class's miniheaps. *)

val class_in_use : t -> class_:int -> int

val miniheap_count : t -> class_:int -> int

val class_fullness : t -> class_:int -> float
(** Always ≤ 1/M (+1 transient slot) by the class invariant. *)

val mapped_small_bytes : t -> int
(** Address space mapped for small-object miniheaps — compare with a
    fixed {!Heap} of worst-case size (the ablation bench does). *)
