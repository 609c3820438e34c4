(** Safety-margin audit: the data plane.

    DieHard's guarantees are quantified — P(mask) as a function of the
    expansion factor M and live occupancy (§3 of the paper) — so a
    running heap can be {e audited}: compare what the theorems promise
    against what the heap is actually doing.  This module collects the
    raw signal cheaply; the analytic comparison lives in
    [Dh_analysis.Margin] (the obs layer is a leaf and cannot see the
    theorem formulas).

    Two kinds of signal:

    - {b Per-class flow} — allocations, frees and threshold-refused
      allocations per size class, plus a 64-bucket histogram of the
      relative slot position chosen by each allocation, which audits the
      allocator's randomness against the uniform-choice assumption the
      theorems require ({!entropy_bits}).  Fed from the heap hot path
      through a caller-held {!local} {!Cell} handle: one enabled check,
      one owner compare (see {!Cell}), plain in-place adds.
    - {b Allocation-site provenance} — every allocation carries a small
      interned {!site} id (a workload callsite, a MiniC AST node, or
      {!unknown}); per-site counters attribute canary verdicts, faults
      and rescues back to the site that allocated the victim object.

    Masked/trial tallies are not recorded here: a fault campaign returns
    its tally, and the audit bench hands its M-sweep's tallies to the
    margin report it builds.

    Everything recorded here is write-only telemetry behind
    {!Control.enabled}: it never feeds back into execution, so a run's
    output is identical with auditing on or off. *)

val max_classes : int
(** 16 — per-class arrays cover at least the heap's twelve size classes
    (out-of-range classes are ignored, never an error). *)

val slot_buckets : int
(** 64 — buckets of the per-class relative-slot-position histogram. *)

(** {1 Allocation sites}

    Sites are interned strings with dense ids, assigned in registration
    order.  Interning is {e not} gated on {!Control.enabled}: ids must
    be stable whether or not telemetry is on (they are assigned at
    program-construction time), and registration is far from any hot
    path. *)

val unknown : int
(** 0 — the site of every allocation that carries no provenance. *)

val site : string -> int
(** Intern a site name (get-or-create). *)

val site_name : int -> string
(** Name of an interned id; ["?"] for ids never returned by {!site}. *)

val site_count : unit -> int

(** {2 The ambient site}

    Provenance has to cross the [Allocator.t] record boundary — the
    diagnosis wrappers ([Canary], [Rescue], the injector) forward
    [malloc : int -> int option] closures and know nothing about sites.
    Rather than widening every wrapper, the current site is ambient,
    per-domain state kept in the recording domain's audit cell: a caller
    brackets its allocation in {!with_site}, and the heap's [malloc]
    reads it back through {!record_alloc}, in the same cell lookup that
    records the allocation.  Setting the ambient site is a no-op while
    disabled (the heap would not read it anyway). *)

val current_site : unit -> int

val with_site : int -> ('a -> 'b) -> 'a -> 'b
(** [with_site site f x] is [f x] run with the ambient site set,
    restoring the previous site on exit (also on exception, which is
    re-raised with its backtrace).  Runs [f x] untouched while
    disabled.  [with_site site a.malloc size] builds no closure. *)

(** {1 The hot-path feed} *)

type local
(** A caller-held {!Cell} handle onto the process-wide audit cells (the
    heap keeps one per heap), caching the recording domain's cell. *)

val local : unit -> local

val record_alloc : local -> class_:int -> index:int -> capacity:int -> int
(** One successful allocation: slot [index] of a [capacity]-slot region
    for [class_], attributed to the ambient site, which it returns
    ({!unknown} while disabled).  The slot position feeds the
    randomness histogram as bucket [index * slot_buckets / capacity]
    (a shift when [capacity] is a power of two); an
    allocation without a slot ([capacity = 0] or [index < 0]: a large
    object) records no slot position.  Probe counts and requested bytes
    are not recorded here: the heap's [Stats] holds them exactly. *)

val record_free : local -> class_:int -> site:int -> unit
val record_failed : local -> class_:int -> unit
(** An allocation refused by the 1/M occupancy threshold. *)

(** {1 Occupancy}

    Cumulative allocs − frees drifts from the heap's truth across
    checkpoint rewinds (the audit never rewinds), so the authoritative
    live counts come from a registered provider — re-registering
    replaces it, so the newest heap owns the reading. *)

type occupancy = {
  occ_class : int;
  occ_size : int;  (** Object size of the class, in bytes. *)
  live : int;
  threshold : int;  (** Allocation ceiling (objects / M). *)
  capacity : int;  (** Region capacity in objects. *)
}

val set_occupancy_provider : (unit -> occupancy list) -> unit
val occupancy : unit -> occupancy list
(** [[]] when no provider is registered; a provider that raises reads
    as [[]]. *)

(** {1 Attributed events} *)

val record_canary : site:int -> unit
(** A canary violation was attributed to an object allocated at
    [site]. *)

val record_fault : site:int -> unit
(** A memory fault (crash) was attributed to [site]. *)

val record_rescue : site:int -> unit
(** A rescue degradation was applied to allocations from [site]. *)

(** {1 Reading} *)

type class_stat = {
  cls : int;
  allocs : int;
  frees : int;
  failed : int;
  slot_hist : int array;  (** Length {!slot_buckets}. *)
}

type site_stat = {
  site_id : int;
  name : string;
  s_allocs : int;
  s_frees : int;
  canaries : int;
  faults : int;
  rescues : int;
}

type snapshot = {
  classes : class_stat array;  (** Length {!max_classes}, indexed by class. *)
  sites : site_stat list;  (** Sites with any activity, by id. *)
  occ : occupancy list;
}

val snapshot : unit -> snapshot
(** Merge every per-domain cell now (the {!Cell} read contract: exact
    once writers have been joined). *)

val sites : unit -> site_stat list
(** The [sites] of a {!snapshot}, without merging the class
    histograms. *)

val top_sites : site_stat list -> site_stat list
(** The 5 most suspect of [sites]: most attributed events
    (canaries + faults + rescues) first, allocation volume breaking
    ties.  Sites with no attributed events and no allocations are
    omitted. *)

(** {1 Arithmetic guards} *)

val ratio : int -> int -> float
(** [ratio num den] is [num / den] as a float, and [0.] when [den <= 0]
    — the masking-rate and occupancy divisions all go through here so
    empty or never-allocated classes can never produce NaN or
    infinity. *)

val entropy_bits : int array -> float
(** Shannon entropy (bits) of a histogram; [0.] for an empty one.  A
    uniform 64-bucket histogram approaches [log2 64 = 6.] from below as
    samples accumulate. *)

val reset : unit -> unit
(** Drop everything — cells (zeroed in place, so {!local} handles stay
    valid), site registry (back to {!unknown} only), attributed events,
    provider — for tests. *)
