(** Sampling from the distributions used by the workload generators.

    The synthetic benchmarks (see {!Dh_workload}) describe each program's
    allocation behaviour as a size distribution, a lifetime distribution
    and an allocation rate; this module provides the samplers. *)

(** The samplers a run draws from many times are built once per run: a
    prepared value holds the law's constants, and a draw reads them.  A
    draw's uniform is [Mwc.float01 rng].  A draw allocates nothing under
    the release profile the tree's [dune-workspace] selects, which
    inlines that call; under the dev profile's [-opaque] it boxes the
    float, 2 words a draw. *)

type geometric
(** A geometric law, with its [log (1 - p)] computed once. *)

val geometric : p:float -> geometric
(** The law of the number of failures before the first success of a
    Bernoulli([p]) trial: values in [\[0, ∞)] with mean [(1-p)/p].
    Requires [0 < p <= 1]. *)

val geometric_draw : geometric -> Mwc.t -> int
(** One value by inversion, [floor (log u / log (1-p))] with [u] in
    [(0, 1\]]; for [p = 1] it is 0 and draws nothing. *)

type zipf_table
(** The CDF of a Zipf distribution over ranks [\[1, n\]] and its guide
    table: immutable, so one table built per workload is shared
    read-only by every domain. *)

val zipf_table : n:int -> s:float -> zipf_table
(** The Zipf table for [n] ranks with exponent [s] (the generalized
    harmonic CDF).  Requires [n >= 1] and [s >= 0]. *)

val zipf_rank : zipf_table -> h:int -> int
(** The rank in [\[1, n\]] whose CDF interval contains [u = h / 2{^30}],
    for a 30-bit hash [h] in [\[0, 2{^30})]: the division is exact, so
    [u] is the hash itself on [\[0, 1)].  Chen and Asau's indexed search:
    the table also holds a guide of 4096 buckets, the first index whose
    CDF exceeds each bucket's lower edge, and a draw scans up from [h]'s
    bucket (its top 12 bits).  For every [h] the rank equals the one a
    binary search for the first CDF value above [u] returns; a draw
    allocates nothing.  A sampler passes [Mwc.bits rng 30]; the serve
    workload passes the request hash, so a rewound window replays
    identical requests.  Raises [Invalid_argument] unless
    [0 <= h < 2{^30}]. *)

type size_class_mix
(** A weighted size mix, with its weights' running sums computed once. *)

val size_class_mix : classes:(int * float) array -> size_class_mix
(** The mix of a weighted list of [(size, weight)] pairs — the shape in
    which workload profiles describe their object-size mixes.  The
    weights must be non-negative and not all zero. *)

val size_class_draw : size_class_mix -> Mwc.t -> int
(** One size, with probability proportional to its weight: one uniform
    draw scaled by the total picks the first size whose running sum
    exceeds it. *)
