(** Sampling from the distributions used by the workload generators.

    The synthetic benchmarks (see {!Dh_workload}) describe each program's
    allocation behaviour as a size distribution, a lifetime distribution
    and an allocation rate; this module provides the samplers. *)

val geometric : Mwc.t -> p:float -> int
(** Number of failures before the first success of a Bernoulli([p]) trial,
    i.e. values in [\[0, ∞)] with mean [(1-p)/p].  Requires [0 < p <= 1]. *)

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

val size_class_mix : Mwc.t -> classes:(int * float) array -> int
(** [size_class_mix rng ~classes] picks a size from a weighted list of
    [(size, weight)] pairs — the shape in which workload profiles describe
    their object-size mixes — with probability proportional to its
    weight.  The weights must be non-negative and not all zero. *)
