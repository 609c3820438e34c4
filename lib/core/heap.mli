(** The DieHard randomized memory manager (paper §4).

    The heap is partitioned into twelve power-of-two size-class regions
    (8 B … 16 KB).  Each region holds its objects in a flat array of
    equal-size slots tracked by an out-of-band bitmap — one bit per
    object, no per-object headers — and may fill to at most [1/M] of its
    capacity.  Allocation picks slots uniformly at random, probing like a
    hash table (expected [1/(1-1/M)] probes); deallocation validates the
    pointer (right offset alignment, currently marked allocated) and
    otherwise ignores the request, so double and invalid frees are
    harmless.  Objects larger than 16 KB are mapped individually with
    no-access guard pages on either side.

    All metadata (bitmaps, counters, the large-object table) lives outside
    the simulated heap, so no simulated store can corrupt it — the
    paper's complete segregation of heap metadata.

    In replicated mode ({!Config.t.replicated}) the region and every
    allocated object are filled with random values so that uninitialized
    reads yield different results in every replica (§3.2). *)

type t

val create : ?config:Config.t -> Dh_mem.Mem.t -> t
(** Build a DieHard heap on the given address space.  Regions are mapped
    lazily on first use. *)

val config : t -> Config.t

val mem : t -> Dh_mem.Mem.t
(** The address space the heap was created on. *)

val allocator : t -> Dh_alloc.Allocator.t
(** Package as the common allocator interface.  Its [malloc] returns
    {!Dh_alloc.Allocator.null} when the size class is at its [1/M]
    threshold (or [sz <= 0]); the ambient site of the heap's address
    space ({!Dh_obs.Audit.with_site}) attributes the allocation for
    audit provenance, in the heap's own {!audit}.  Sites never affect
    placement or success — they are write-only telemetry, recorded only
    while the space has obs on.  Its [free] validates the pointer;
    invalid and double frees are ignored (and counted in
    {!Dh_alloc.Stats.t.ignored_frees}). *)

val stats : t -> Dh_alloc.Stats.t

(** {1 Page meshing}

    MESH-style compaction (see DESIGN.md, "Page meshing"): merge pages
    of a size-class region whose slot bitmaps are disjoint onto one
    backing page via {!Dh_mem.Mem.alias}.  Pointers never change and
    placement stays uniform-random; the region's free slots that overlap
    a buddy page's live objects are masked out of the probe loop.  With
    {!Config.t.mesh} set, a pass runs automatically every
    [mesh_threshold] freed bytes; {!mesh} runs one on demand either
    way. *)

val mesh : t -> int
(** Run one SplitMesher pass over every mapped region and return the
    number of page pairs meshed (each retires one backing page). *)

val meshes : t -> int
(** Cumulative successful meshes over the heap's lifetime. *)

(** {1 Snapshot / restore}

    DieHard's metadata is segregated from the simulated address space, so
    {!Dh_mem.Mem.rewind} alone would desynchronize bitmaps from bytes.
    These capture and restore the metadata half of a checkpoint; the
    supervisor takes both halves atomically.  Restoration is in place:
    aliases to the heap's stats, rng and bitmaps (the {!allocator} record)
    observe the restored state. *)

type snapshot

val snapshot : t -> snapshot
(** Copy the bitmaps, region states, large-object table, rng state and
    counters — O(bitmap bytes), independent of heap size. *)

val restore : t -> snapshot -> unit
(** Restore a snapshot taken on this same heap. *)

val reseed : t -> seed:int -> unit
(** Reset the heap's generator in place to a fresh seed — the
    randomness-refresh half of rewind-and-reseed recovery: replayed
    allocations draw fresh placements, so a deterministic heap error is
    unlikely to recur at the same spot (the paper's independence
    argument, applied in time rather than across replicas). *)

(** {1 Introspection for experiments and tests} *)

val invariants : t -> unit
(** Check DieHard's heap invariants, raising [Failure] that names the
    first one broken: no size class holds more live objects than its
    threshold ([1/M] of its slots); each class's bitmap has exactly as
    many bits set as it has live objects; the two pages of a meshed pair
    hold disjoint live slots; and every live object sits at a
    slot-aligned address of its own region (a large object: page-aligned,
    just past its guard page).  Costs O(bitmap bytes); meant to run after
    every operation of a test, never on the allocation paths.  Oracle:
    the six-allocator differential and the mesh tests
    (test_properties, test_mesh). *)

val find_object : t -> int -> Dh_alloc.Allocator.object_info option

val region_base : t -> class_:int -> int option
(** Base address of a size-class region, if it has been mapped yet. *)

val region_capacity : t -> class_:int -> int
(** Slots in the region for [class_]. *)

val region_in_use : t -> class_:int -> int
(** Currently-allocated slots in the region for [class_]. *)

val region_fullness : t -> class_:int -> float
(** [in_use / capacity] — the heap-fullness parameter of Theorem 1. *)

val site_of_addr : t -> int -> int option
(** Allocation-site id recorded for the slot or large object covering
    this address — the {e last} allocator of those bytes, even if since
    freed (dangling accesses attribute to the site that allocated the
    stale object).  [None] when no provenance was recorded (telemetry
    off, or never allocated). *)

val fault_site : t -> int -> int option
(** The allocation site to blame for a memory fault at this address.  On
    the unmapped page right after a size-class region, the site of the
    nearest allocated slot below it in that region, or [None] when no
    slot there is allocated (or no provenance was recorded).  That slot
    is the object whose access ran off the end or one the access
    overwrote on its way, so the site is the culprit's only when the
    live slots it crossed share a site (as when one site fills the
    class).  Anywhere else, {!site_of_addr}'s site, or
    [Dh_obs.Audit.unknown] when it has none. *)

val audit : t -> Dh_obs.Audit.t
(** The heap's own audit: the per-class flow, slot-position histogram
    and per-site tallies of every malloc, free and threshold refusal it
    served; empty when its address space has obs off.  Cumulative: {!restore}
    does not roll it back. *)

(** {1 Guarded large objects}

    The large-object path on its own, for {!Adaptive}, which keeps its
    large objects exactly as this heap does.  The heap adds its
    replicated-mode fill and audit records on top. *)

type large
(** A table of guarded large objects, keyed by payload address. *)

val large_table : unit -> large

val large_malloc : large -> Dh_mem.Mem.t -> Dh_alloc.Stats.t -> int -> int
(** [large_malloc large mem stats sz] maps [sz] bytes rounded up to whole
    pages between two no-access guard pages, records the object in
    [large] and [stats], and returns its payload address. *)

val large_free : large -> Dh_mem.Mem.t -> Dh_alloc.Stats.t -> int -> bool
(** Unmap the object whose payload address this is and return [true];
    any other address counts an ignored free in [stats] and returns
    [false]. *)

val large_find : large -> int -> Dh_alloc.Allocator.object_info option
(** The object whose payload covers this address, if any. *)

val rng : t -> Dh_rng.Mwc.t
(** The heap's generator — exposed so experiments can record or perturb
    the randomness stream. *)

val pp_layout : Format.formatter -> t -> unit
(** Render the heap's occupancy as one line per mapped size-class
    region: the region is down-sampled into 64 buckets, each shown as a
    density glyph from ['.'] (empty) to ['#'] (full).  The visual
    argument for randomized placement: live objects scatter instead of
    clustering.  Large objects are listed below the
    regions. *)
