(** Safety-margin report: the paper's analytic guarantees computed live
    against one heap and its own {!Dh_obs.Audit}.

    {!Dh_obs.Audit} is the data plane — each heap's cheap per-class
    flow, slot randomness and per-site provenance, collected in the obs
    leaf where the theorem formulas are out of reach.  This module is
    the comparison plane: it evaluates §6's closed forms at the heap's
    {e current} state, so a running system can be asked, at any moment,
    "am I inside my promised margin?"

    Per size class, with occupancy read from the heap and flow from its
    audit:

    - occupancy [live / capacity] and headroom against the 1/M
      threshold;
    - Theorem 1's overflow-masking bound at the current fullness
      ([P = 1 - (1 - (F/H)^O)^k]);
    - Theorem 2's dangling-masking bound over [A] intervening
      allocations ([P >= 1 - (A/Q)^k], [Q] the class's free slots);
    - the observed slot-choice entropy against the uniform ideal —
      the randomness assumption every theorem rests on.

    Alongside: the top allocation sites and, when the caller
    ran masking trials of its own, their empirical rates ({!empirical};
    the audit bench fills them from its M-sweep).  All ratios are
    guarded — an empty or never-allocated class reads as 0, never
    NaN. *)

type class_margin = {
  cm_class : int;
  cm_size : int;  (** Object size in bytes (0 for the large pseudo-class). *)
  cm_live : int;
  cm_threshold : int;
  cm_capacity : int;
  cm_allocs : int;  (** Cumulative audited allocations in this class. *)
  cm_frees : int;
  cm_failed : int;  (** Threshold-refused allocations. *)
  cm_occupancy : float;  (** [live / capacity]; 0 when empty. *)
  cm_overflow_mask : float;
      (** Theorem 1 at the current fullness, single-object overflow. *)
  cm_dangling_mask : float;
      (** Theorem 2 over [dangling_allocations] intervening allocs. *)
  cm_entropy_bits : float;  (** Observed slot-choice entropy. *)
  cm_entropy_ideal : float;
      (** [log2 slot_buckets] — the uniform-choice ceiling; 0 when no
          samples were recorded. *)
  cm_samples : int;  (** Slot-position samples behind the entropy. *)
}

type empirical = {
  em_kind : string;  (** The error class, e.g. ["overflow"] or ["dangling"]. *)
  em_masked : int;
  em_trials : int;
  em_rate : float;  (** [masked / trials], guarded. *)
}

type report = {
  replicas : int;
  dangling_allocations : int;  (** The [A] the dangling bounds used. *)
  uninit_detect : float;
      (** Theorem 3 at [uninit_bits] bits for [replicas] replicas. *)
  uninit_bits : int;
  classes : class_margin list;
      (** Classes with any occupancy or audited activity, by class. *)
  empirical : empirical list;
      (** Measured masking rates; {!of_heap} leaves this empty for the
          caller that ran the trials. *)
  sites : Dh_obs.Audit.site_stat list;  (** {!Dh_obs.Audit.top_sites}. *)
}

val of_heap : ?replicas:int -> ?dangling_allocations:int -> Diehard.Heap.t -> report
(** Evaluate the bounds against [heap]'s occupancy and its audit's flow
    ({!Diehard.Heap.audit}), at 32 uninitialized bits, with the top 5
    sites.  A class is reported when [heap] has mapped it or holds
    objects in it, or when its audit recorded any activity in it.
    Defaults: 1 replica (stand-alone mode), [A = 10] intervening
    allocations (the paper's §7.3.1 distance). *)

val binomial_sigma : p:float -> trials:int -> float
(** Standard deviation of an observed rate over [trials] Bernoulli
    draws of probability [p]: [sqrt (p * (1-p) / trials)]; 0 when
    [trials <= 0].  The statistical tolerance the bench audit gate is
    built from. *)

val to_json : report -> string
(** One self-contained JSON object (no trailing newline). *)

val to_csv : report -> string
(** Per-class rows under a
    ["class,size,live,threshold,capacity,allocs,frees,failed,occupancy,overflow_mask,dangling_mask,entropy_bits,entropy_ideal,samples"]
    header. *)

val pp : Format.formatter -> report -> unit
(** Human-readable: bounds table, empirical rates, top sites. *)
