(** Closed-form probabilistic-memory-safety guarantees (paper §6).

    These are DieHard's "hard analytical guarantees": lower bounds on the
    probability of masking buffer overflows and dangling-pointer errors,
    and the exact probability of detecting uninitialized reads.  The
    Monte-Carlo experiments in the benchmark harness validate the
    implemented allocator against these formulas.

    Notation follows the paper: [M] the heap-expansion factor, [k] the
    number of replicas, [H] the maximum heap size, [L] the live size,
    [F = H - L] the free space, [O] the number of objects' worth of bytes
    an overflow clobbers, [A] the number of allocations intervening after
    a premature free, [S] the object size, [B] the number of
    uninitialized bits read. *)

val overflow_mask_probability : free_fraction:float -> objects:int -> replicas:int -> float
(** Theorem 1: [P(OverflowedObjects = 0) = 1 - (1 - (F/H)^O)^k] — the
    probability that an overflow of [objects] objects' worth of bytes
    overwrites no live object in at least one replica.  [free_fraction]
    is [F/H].  Requires [replicas <> 2] per the paper's voting caveat
    (checked). *)

val dangling_mask_probability :
  allocations:int -> free_slots:int -> replicas:int -> float
(** Theorem 2: [P(Overwrites = 0) >= 1 - (A / Q)^k] where [Q = F/S] is
    the number of free slots in the object's size class.  The probability
    that an object freed [allocations] too early is still intact.
    Clamped to [0, 1] (the bound is vacuous once [A > Q]). *)

val uninit_detect_probability : bits:int -> replicas:int -> float
(** Theorem 3: [P = (2^B)! / ((2^B - k)! * 2^(Bk))] — the probability
    that [k] replicas all produce different output from an uninitialized
    read of [bits] bits (non-narrowing, non-widening computation).
    Computed in log space so large [bits] do not overflow.  Returns 0
    when [replicas > 2^bits] (pigeonhole: two replicas must agree). *)

val multiple_errors_mask_probability : float list -> float
(** §6's composition note: "One can calculate the probability of
    avoiding multiple errors by multiplying the probabilities of
    avoiding each error" (under the stated independence assumption).
    Takes the per-error masking probabilities. *)

val expected_probes : multiplier:float -> float
(** §4.2: expected bitmap probes per allocation, [1 / (1 - 1/M)], for
    the heap's M, a float > 1 as in {!Diehard.Config}. *)

(** {1 Series generator for Figure 4(b)} *)

val figure_4b :
  heap_size:int ->
  multiplier:int ->
  object_sizes:int list ->
  allocations:int list ->
  (int * (int * float) list) list
(** Figure 4(b): stand-alone DieHard ([k = 1]) in the given
    configuration; for each object size, the masking probability per
    intervening-allocation count.  [Q] is derived from the size-class
    region geometry exactly as {!Diehard.Config} computes it.
    Returns [(object_size, [(allocations, p); ...])] rows. *)
