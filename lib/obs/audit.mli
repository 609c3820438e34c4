(** Safety-margin audit: the data plane.

    DieHard's guarantees are quantified — P(mask) as a function of the
    expansion factor M and live occupancy (§3 of the paper) — so a
    running heap can be {e audited}: compare what the theorems promise
    against what the heap is actually doing.  This module collects the
    raw signal cheaply; the analytic comparison lives in
    [Dh_analysis.Margin] (the obs layer is a leaf and cannot see the
    theorem formulas).

    Each heap owns one audit ({!t}), because every bound is a function
    of one heap: its M and its fullness.  A process may hold several
    heaps (the k replicas of replicated mode, the supervisor's retry
    ladder and its canary replay), and a reader folds exactly the
    audits it is handed ({!snapshot}).  An audit records two kinds of
    signal:

    - {b Per-class flow} — allocations, frees and threshold-refused
      allocations per size class, plus a 64-bucket histogram of the
      relative slot position chosen by each allocation, which audits the
      allocator's randomness against the uniform-choice assumption the
      theorems require ({!entropy_bits}).  Plain in-place adds on the
      audit's own arrays: a heap is used from one domain at a time.
    - {b Allocation-site provenance} — every allocation carries a small
      interned {!site} id (a workload callsite, a MiniC AST node, or
      {!unknown}), and the audit tallies allocations and frees per site.

    Masked/trial tallies are not recorded here: a fault campaign returns
    its tally, and the audit bench hands its M-sweep's tallies to the
    margin report it builds.  Nor is live occupancy, which
    [Dh_analysis.Margin] reads from the heap it audits, nor the
    canary, fault and rescue attributions, which the supervisor computes
    for its incident.

    Everything recorded here is write-only telemetry behind the obs
    flag of the heap's address space ({!Recorder.on}): it never feeds
    back into execution, so a run's output is identical with auditing on
    or off. *)

val slot_buckets : int
(** 64 — buckets of the per-class relative-slot-position histogram. *)

(** {1 Allocation sites}

    Sites are interned strings with dense ids, assigned in registration
    order.  Interning is {e not} gated on obs: ids must be stable
    whether or not telemetry is on (they are assigned at
    program-construction time), and registration is far from any hot
    path.  The interning table is the one piece of obs state that stays
    process-wide: it is read-mostly (a name is interned once, then only
    looked up), and no output depends on it, since an id only names a
    site in a report. *)

val unknown : int
(** 0 — the site of every allocation that carries no provenance. *)

val site : string -> int
(** Intern a site name (get-or-create). *)

val site_name : int -> string
(** Name of an interned id; ["?"] for ids never returned by {!site}. *)

(** {2 The ambient site}

    Provenance has to cross the [Allocator.t] record boundary — the
    diagnosis wrappers ([Canary], [Rescue], the injector) forward
    [malloc : int -> int] closures and know nothing about sites.
    Rather than widening every wrapper, the current site is ambient
    state of the allocator's address space, in its {!Recorder}: a
    caller brackets its allocation in {!with_site}, and the heap's
    [malloc] reads it back through {!record_alloc}.  Setting the
    ambient site is a no-op while the space's obs is off (the heap
    would not read it anyway). *)

val with_site : Recorder.t -> int -> ('a -> 'b) -> 'a -> 'b
(** [with_site obs site f x] is [f x] run with [obs]'s ambient site set,
    restoring the previous site on exit (also on exception, which is
    re-raised with its backtrace).  [obs] is the recorder of the
    allocator's address space.  Runs [f x] untouched while [obs] is
    off.  [with_site obs site a.malloc size] builds no closure. *)

(** {1 One heap's audit} *)

type t
(** One heap's per-class flow and per-site tallies.  Recording mutates
    it in place, from the domain using the heap. *)

val create : Recorder.t -> t
(** An empty audit for a heap on the address space whose recorder is
    given: the records below read its obs flag and its ambient site,
    and do nothing while it is off. *)

val record_alloc : t -> class_:int -> index:int -> capacity:int -> int
(** One successful allocation: slot [index] of a [capacity]-slot region
    for [class_], attributed to the ambient site, which it returns
    ({!unknown} while off).  The slot position feeds the
    randomness histogram as bucket [index * slot_buckets / capacity]
    (a shift when [capacity] is a power of two); an
    allocation without a slot ([capacity = 0] or [index < 0]: a large
    object) records no slot position.  Probe counts and requested bytes
    are not recorded here: the heap's [Stats] holds them exactly. *)

val record_free : t -> class_:int -> site:int -> unit
val record_failed : t -> class_:int -> unit
(** An allocation refused by the 1/M occupancy threshold. *)

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
(** One site's tallies.  [canaries], [faults] and [rescues] are
    attributed events: 0 in a {!snapshot}; the supervisor fills them in
    for its incident's offenders. *)

type snapshot = {
  classes : class_stat array;
      (** Indexed by class; 16 long, which covers the heap's twelve size
          classes (out-of-range classes are ignored, never an error). *)
  sites : site_stat list;  (** Sites with any allocation or free, by id. *)
}

val snapshot : t list -> snapshot
(** The sum of the given audits.  Exact once the domains recording into
    them have been joined. *)

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
