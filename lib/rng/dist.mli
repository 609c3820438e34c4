(** Sampling from the distributions used by the workload generators.

    The synthetic benchmarks (see {!Dh_workload}) describe each program's
    allocation behaviour as a size distribution, a lifetime distribution
    and an allocation rate; this module provides the samplers. *)

(** The samplers a run draws from many times are built once per run: a
    prepared value holds the law's constants, and a draw reads them.  A
    draw's uniform is [Mwc.float01]'s value, and it allocates nothing. *)

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
(** The CDF of a Zipf distribution over ranks [\[1, n\]]: immutable, so
    one table built per workload is shared read-only by every domain. *)

val zipf_table : n:int -> s:float -> zipf_table
(** The Zipf table for [n] ranks with exponent [s] (the generalized
    harmonic CDF).  Requires [n >= 1] and [s >= 0]. *)

val zipf_rank : zipf_table -> u:float -> int
(** Inversion by binary search: the rank in [\[1, n\]] whose CDF interval
    contains [u] in [\[0, 1)].  A sampler passes [Mwc.float01 rng]; the
    serve workload passes the request hash, so a rewound window replays
    identical requests. *)

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
