(** HDR-style histograms with bounded relative error and exact rank
    selection: the repository's one histogram type, each made and found
    by name ({!named}).

    Samples are bucketed on two levels: a coarse level indexed by the
    sample's exponent and a fine level of [2^fine_bits] sub-buckets
    within each exponent, so every reported quantile is within a
    [1/2^fine_bits] (3.125%) relative error of the exact order statistic
    — and values below [2^(fine_bits+1)] are bucketed exactly.

    A histogram is a {!Cell} handle: the first record from a domain
    allocates it a private cell, and every later record through a handle
    that domain owns is one owner compare (see {!Cell}) and two plain in-place
    adds.  All recording is a no-op while {!Control.enabled} is false
    (one atomic load).

    Reads go through {!snapshot}: an immutable merged copy of every
    per-domain cell.  Snapshots merge ({!merge}), so sharded collectors
    — one instrument per domain, one per run leg — combine into a single
    distribution without re-bucketing error. *)

type t
(** A handle onto a histogram's per-domain cells. *)

val fine_bits : int
(** 5: 32 sub-buckets per exponent, relative error bound [1/32]. *)

val bucket_count : int
(** Buckets per cell; every non-negative OCaml int has a bucket. *)

val named : string -> t
(** The process-wide histogram of that name, created empty on first
    use: asking twice returns the same histogram, so short-lived
    components (one serve loop per supervisor attempt) accumulate into
    one series.  The lookup takes a lock — resolve a histogram once,
    outside hot loops, and keep the handle. *)

val share : t -> t
(** Another handle onto the same histogram with its own cached cell
    ({!Cell.share}): give one to each long-lived single-writer component
    (a serve loop) so concurrent writers do not evict each other's
    cache. *)

val reset : unit -> unit
(** Zero every named histogram in place (tests, and benches starting a
    fresh measurement).  Handles stay valid and record from zero. *)

(** {1 Recording} *)

val record : t -> int -> unit
(** Record a sample.  Raises [Invalid_argument] on negative samples
    (checked only while enabled). *)

(** {1 Bucketing} *)

val bucket_of : int -> int
(** Bucket index of a non-negative sample.  Monotone: [a <= b] implies
    [bucket_of a <= bucket_of b]. *)

val bucket_bounds : int -> int * int
(** [(lo, hi)] inclusive value range of a bucket index.  [hi - lo] is
    below [lo / 2^fine_bits + 1], which is what bounds the error. *)

(** {1 Snapshots} *)

type snapshot

val snapshot : t -> snapshot
(** Merge every per-domain cell now (the {!Cell} read contract: exact
    once writers have been joined). *)

val empty : snapshot

val merge : snapshot -> snapshot -> snapshot

val count : snapshot -> int  (** Samples recorded. *)

val counts : snapshot -> int array
(** Per-bucket sample counts, indexed like {!bucket_of} (a copy). *)

val sum : snapshot -> int

val mean : snapshot -> float  (** 0.0 when empty. *)

val quantile : snapshot -> float -> int
(** [quantile s q] for [q] in [[0, 1]] is the upper bound of the bucket
    holding the rank-[max 1 (ceil (q * count))] sample — at most 3.125%
    above the exact order statistic, never below it, and exact for
    samples below [2^(fine_bits+1)].  0 when the snapshot is empty. *)

val max_value : snapshot -> int
(** Upper bound of the highest non-empty bucket; 0 when empty. *)

val to_csv : unit -> string
(** Every named histogram as CSV, sorted by name, under a
    ["name,count,p50,p99,max,sum"] header: the sample count, the 0.5
    and 0.99 {!quantile}s, {!max_value} and the sum of a fresh
    snapshot. *)
