(** A simulated flat address space.

    This is the substrate on which every allocator in the repository runs:
    a byte-addressable sparse address space with [mmap]/[munmap], page
    protection and faulting accesses.  It replaces the real process address
    space of the paper's C implementation (see DESIGN.md, "The central
    substitution").

    Addresses are plain [int]s; address 0 is never mapped, so 0 serves as
    NULL.  Words are 8 bytes, little-endian, matching the word size of the
    MiniC machine in {!Dh_lang}. *)

type prot =
  | No_access  (** Guard page: any access faults. *)
  | Read_only
  | Read_write

type t
(** An address space. *)

val page_size : int
(** 4096, as on the paper's platforms. *)

val page_shift : int
(** 12: [page_size = 1 lsl page_shift]. *)

val word_size : int
(** 8 bytes. *)

val create : ?obs:bool -> unit -> t
(** A fresh, empty address space, with a fresh {!recorder} that is on
    exactly when [obs] is (default [false]) for the space's whole life.
    With obs on, a fault the space raises leaves a flight record in its
    own {!recorder} whose ["mem counters"] section holds this space's
    own {!stats}, {!touched_pages} and {!preimaged_pages}; the heaps,
    collectors and workloads built on the space trace into it and read
    their obs flag and ambient allocation site from it. *)

val recorder : t -> Dh_obs.Recorder.t
(** This space's own obs state: its flag, its trace ring, its ambient
    allocation site, and the flight captures of the faults it raised and
    of whatever else its owner records against it (a supervisor's failed
    attempt, the serve loop's advertised step).  {!rewind} does not roll
    it back. *)

(** {1 Mapping} *)

val mmap : t -> int -> int
(** [mmap t len] maps a fresh zero-filled, [Read_write] segment of [len]
    bytes (rounded up to a whole number of pages) and returns its base
    address.  Fresh segments never overlap live ones, and bases are
    page-aligned. *)

val munmap : t -> int -> unit
(** [munmap t base] unmaps the segment whose base is exactly [base].
    Faults with [Unmap_unmapped] otherwise. *)

val protect : t -> addr:int -> len:int -> prot -> unit
(** [protect t ~addr ~len p] sets the protection of every page overlapping
    [\[addr, addr+len)].  The range must lie inside one mapped segment. *)

val is_mapped : t -> int -> bool
(** [is_mapped t addr] is true if [addr] lies in a mapped segment
    (regardless of protection). *)

val segment_of : t -> int -> (int * int) option
(** [segment_of t addr] is [Some (base, len)] for the mapped segment
    containing [addr], if any. *)

val mapped_bytes : t -> int
(** Total bytes currently backed by physical pages (the simulation's
    resident-set proxy).  Meshed pages count once: every {!alias} retires
    one backing page. *)

val inspect : t -> addr:int -> len:int -> string
(** The bytes of [\[addr, addr+len)], read straight from the backing
    store: no protection check, no counting, no TLB/cache charge, so
    looking does not perturb what is looked at (the flight recorder's
    and the tests' view).  Raises [Invalid_argument] unless the range
    lies inside one mapped segment. *)

(** {1 Page meshing}

    MESH-style compaction (see DESIGN.md, "Page meshing"): every segment
    carries a virtual→physical page table, identity until {!alias} remaps
    one virtual page onto another's backing page.  Pointers never change —
    programs keep using the same virtual addresses — but the retired
    backing page stops counting toward {!mapped_bytes} and
    {!touched_pages}. *)

val alias : t -> src:int -> dst:int -> live:(int * int) list -> unit
(** [alias t ~src ~dst ~live] remaps virtual page [dst] onto [src]'s
    backing page, first merging [dst]'s live bytes — the [(offset, len)]
    ranges in [live], page-relative — into it.  The caller (the heap
    mesher) guarantees the two pages' live ranges are disjoint; the merge
    is allocator-internal compaction, so it charges no stats and no
    TLB/cache model costs.  Interplay with checkpoints: the survivor page
    is pre-imaged before the merge and the remap is logged, so a
    {!rewind} across the mesh restores both the mapping and the bytes.

    Both pages must be page-aligned, [Read_write], and lie in the same
    segment; [dst]'s backing page must not already be shared.  Raises
    [Invalid_argument] otherwise (these are mesher bugs, not simulated
    program faults). *)

val meshed_pages : t -> int
(** Backing pages currently retired by {!alias} across all segments. *)

val backing_page : t -> int -> int
(** The address of the backing (physical) page for the page containing
    the given address — equal for two meshed pages, distinct otherwise
    (tests and diagnostics). *)

(** {1 Access}

    All accesses fault ({!Fault.Error}) on unmapped addresses or protection
    violations, and all of them — byte, word, bulk, and each page run
    of a {!write_cstring} — are checked by one validator, which walks the
    range page by page in address order.  Multi-byte accesses validate
    every byte of their range {e before} touching memory: a fault carries
    the address of exactly the first offending byte and the operation has
    had no partial effect — no bytes written, no pages newly marked
    touched (the exact-fault, no-tearing discipline of checked memory
    models such as CHERI-C).  The one exception is {!write_cstring},
    which stores as C's [strcpy] does.  The TLB and cache models are
    still charged for the pages and lines walked up to and including the
    faulting byte, as a bytewise access sequence would have been.

    Counting rule ({!stats}): byte and word operations count one read or
    write even when they fault; bulk operations count [len] only on
    success; word ranges ({!write_words}, {!read_words}) count one per
    word, only on success; {!write_cstring} counts each byte it stores,
    the faulting byte included.

    Cost-model charging rule: an access charges one TLB touch per page and
    one cache touch per line its byte range spans — never more, never
    fewer — so miss counts depend only on the address stream, not on
    whether bytes moved one at a time or in bulk. *)

val read8 : t -> int -> int
val write8 : t -> int -> int -> unit

val read64 : t -> int -> int
(** Little-endian 8-byte load, returned as a 63-bit OCaml int (the top
    byte's high bit is lost; the MiniC machine is a 63-bit-word machine). *)

val write64 : t -> int -> int -> unit

val write_words : t -> addr:int -> Bytes.t -> n:int -> unit
(** [write_words t ~addr buf ~n] stores the first [8n] bytes of [buf] at
    [addr]: the [n] little-endian words [write64] would store one at a
    time, validated, charged and marked written as one range, atomic
    like the bulk operations.  It counts [n] writes, only once the range
    has validated; [n = 0] touches nothing.  Allocates nothing unless
    the range crosses a page boundary of a meshed segment.  Raises
    [Invalid_argument] if [n < 0] or [8n] exceeds [Bytes.length buf]. *)

val read_words : t -> addr:int -> Bytes.t -> n:int -> unit
(** [read_words t ~addr buf ~n] loads the [n] words at [addr] into the
    first [8n] bytes of [buf], by the same rules as {!write_words}: [n]
    reads, counted on success; on a fault [buf] is left unchanged. *)

val read_bytes : t -> addr:int -> len:int -> string
(** Bulk read: validates the whole range page by page, then blits.
    O(pages + lines + len/blit) rather than per-byte. *)

val write_bytes : t -> addr:int -> string -> unit

val fill : t -> addr:int -> len:int -> char -> unit

val fill_random : t -> addr:int -> len:int -> Dh_rng.Mwc.t -> unit
(** Fill with pseudo-random bytes — the heap/object randomization step of
    DieHard's replicated mode (§4.1, §4.2).  Consumes one [next_u32] per
    four bytes (LSB first), so replicas with equal seeds build
    byte-identical heaps regardless of fill batching. *)

val write_cstring : t -> addr:int -> string -> unit
(** [write_cstring t ~addr s] stores [s] and then a NUL at [addr]: the
    store C's unchecked [strcpy] makes, so it is the one multi-byte store
    that is {e not} atomic.  It is exactly
    [String.iteri (fun i c -> write8 t (addr + i) (Char.code c)) s;
    write8 t (addr + String.length s) 0] — the same bytes, counters,
    written pages, pre-images and fault, with the bytes before a fault
    already written and the faulting byte counted — done one page run at
    a time. *)

(** {1 Checkpoint / rewind}

    Copy-on-write checkpoints for rewind-and-discard recovery (see
    DESIGN.md, "Rewind-and-discard recovery").  {!checkpoint} arms an undo
    log; the write paths then save a page's pre-image the first time it is
    dirtied after the arm — arming itself copies nothing, so checkpoints
    are incremental and cost O(pages dirtied in the window), not O(heap).
    {!rewind} restores exactly the dirty set and undoes mapping deltas
    (segments mapped since the checkpoint are discarded, segments unmapped
    since are re-inserted, protection changes reverted), and restores the
    internal base-address allocator, so a rewound-and-resumed execution
    draws the same addresses a never-faulted run would.

    Pre-image buffers are reused: when a window closes (re-armed,
    discarded, or rewound once its pre-images are blitted back) its page
    buffers go to a spare list, and later first touches copy into a spare
    buffer instead of allocating one.  Only the first window allocates
    (as do windows that pre-image more pages than any earlier one), so a
    steady stream of windows over the same pages allocates no page
    buffers at all.

    Because every multi-byte operation validates its whole range before
    mutating anything or marking anything dirty, a fault mid-bulk-op
    leaves the undo log describing precisely the pre-op state: rewind
    after a fault is always exact. *)

val checkpoint : t -> unit
(** Arm (or re-arm) the checkpoint.  Re-arming commits the previous
    window: its undo log is dropped. *)

val checkpointed : t -> bool
(** Whether a checkpoint is armed. *)

val discard_checkpoint : t -> unit
(** Disarm without rewinding; the current state becomes permanent. *)

type rewind_report = {
  pages_restored : int;  (** Pre-imaged pages blitted back. *)
  segments_remapped : int;  (** Segments un-unmapped. *)
  segments_discarded : int;  (** Segments mapped since the arm, dropped. *)
  protections_restored : int;  (** Per-page protection reverts applied. *)
}

val rewind : t -> rewind_report
(** Restore the state at the last {!checkpoint} in O(dirty) and leave the
    checkpoint armed (a second fault rewinds to the same state).  Raises
    [Invalid_argument] if no checkpoint is armed. *)

val dirty_pages : t -> int
(** Pages dirtied in the current checkpoint window (or since creation /
    the last discard when no checkpoint is armed). *)

val preimaged_pages : t -> int
(** Cumulative count of page pre-images taken — the copy-on-write work
    actually performed, i.e. the checkpoint subsystem's overhead proxy. *)

(** {1 Accounting} *)

type stats = {
  reads : int;
      (** Loads, by the access counting rule: one per byte or word
          operation, [len] per bulk read. *)
  writes : int;  (** Stores, by the same rule. *)
  mmaps : int;
  munmaps : int;
  tlb_misses : int;
      (** Misses in a 64-entry direct-mapped TLB model charged once per
          page an access spans — the cost model's handle on page-level
          locality, which is where the paper locates DieHard's overhead
          (§4.5, §7.2.1). *)
  cache_misses : int;
      (** Misses in a 1024-line (64 B) direct-mapped data-cache model
          charged once per line an access spans — charges cold traversals
          such as GC marking and randomly-placed object touches. *)
  dirty_pages : int;
      (** Pages dirtied in the current checkpoint window — the working-set
          churn the rewind layer would have to restore right now. *)
}

val stats : t -> stats

val touched_pages : t -> int
(** Number of distinct pages ever written — the proxy this simulation uses
    for resident-set size / page-level locality (paper §4.5 discusses
    DieHard's poorer page-level locality). *)
