(** HDR-style histograms with bounded relative error and exact rank
    selection: the repository's one histogram type.

    Samples are bucketed on two levels: a coarse level indexed by the
    sample's exponent and a fine level of [2^fine_bits] sub-buckets
    within each exponent, so every reported quantile is within a
    [1/2^fine_bits] (3.125%) relative error of the exact order statistic
    — and values below [2^(fine_bits+1)] are bucketed exactly.

    A histogram is a plain single-writer value owned by whoever made it
    (the supervisor makes one per run and fills it from its serve
    loop): recording is two in-place adds, with no lock, no per-domain
    shard and no enabled check — gating is the owner's business.  Reads
    see every sample recorded so far. *)

type t

val fine_bits : int
(** 5: 32 sub-buckets per exponent, relative error bound [1/32].
    Oracle: the bucketing tests' error bound (test_slo_obs). *)

val create : unit -> t
(** A fresh, empty histogram. *)

val reset : unit -> unit
(** A no-op.  Benchmark: perfbench's serve pass calls it; ROADMAP item 7
    drops it with that call. *)

(** {1 Recording} *)

val record : t -> int -> unit
(** Record a sample.  Raises [Invalid_argument] on negative samples. *)

(** {1 Bucketing} *)

val bucket_of : int -> int
(** Bucket index of a non-negative sample.  Monotone: [a <= b] implies
    [bucket_of a <= bucket_of b].  Oracle: the bucketing tests check it
    against a bit loop and {!bucket_bounds} (test_obs, test_slo_obs). *)

val bucket_bounds : int -> int * int
(** [(lo, hi)] inclusive value range of a bucket index.  [hi - lo] is
    below [lo / 2^fine_bits + 1], which is what bounds the error. *)

(** {1 Reading} *)

val count : t -> int  (** Samples recorded. *)

val counts : t -> int array
(** Per-bucket sample counts, indexed like {!bucket_of} (a copy); every
    non-negative OCaml int has a bucket. *)

val quantile : t -> float -> int
(** [quantile h q] for [q] in [[0, 1]] is the upper bound of the bucket
    holding the rank-[max 1 (ceil (q * count))] sample — at most 3.125%
    above the exact order statistic, never below it, and exact for
    samples below [2^(fine_bits+1)].  0 when the histogram is empty. *)

val max_value : t -> int
(** Upper bound of the highest non-empty bucket; 0 when empty. *)

val to_csv : (string * t) list -> string
(** The given histograms as CSV, one row each in the order given, under
    a ["name,count,p50,p99,max,sum"] header: the sample count, the 0.5
    and 0.99 {!quantile}s, {!max_value} and the sum. *)
