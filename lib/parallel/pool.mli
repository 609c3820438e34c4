(** Embarrassingly parallel fan-out over OCaml 5 domains.

    The paper's replicated runtime runs its k replicas as concurrent
    processes that live for one run (§5, §7.2.3).  Every execution in
    this reproduction — a replica, an injected trial, a Monte-Carlo
    sample — owns a private {!Dh_mem.Mem.t} address space and a per-heap
    RNG, so runs share no mutable state and map directly onto domains.

    {b Spawn, claim, join}: {!init} spawns up to [jobs - 1] helper
    domains, and the helpers and the calling domain claim chunks of
    indices off a shared atomic cursor until none are left.  The caller
    then joins every helper before {!init} returns, so no domain
    outlives the fan-out and sequential code that follows pays no
    stop-the-world barrier for idle domains.  Tasks here are coarse
    (whole program runs), so chunked self-scheduling balances well
    without queues or work stealing.

    {b Helper cap}: at most 120 helpers are alive at once, process-wide
    — headroom under the runtime's 128-domain limit.  A fan-out that
    finds the cap reached (a nested fan-out, say) runs with fewer
    helpers, down to none, instead of failing.

    {b Determinism contract}: [init ~jobs n f] returns results in index
    order and [f] receives exactly the same arguments regardless of
    [jobs] — any seed material must be assigned {e before} the fan-out
    (see {!Dh_rng.Seed.split}).  Given a pure [f], the
    result is byte-identical for every [jobs] setting, and also when a
    nested fan-out runs with fewer helpers.

    {b Safety contract}: [f] must not touch mutable state shared with
    other items (each call should build its own [Mem.t], heap, and
    RNGs — the natural shape of every run in this codebase).
    Per-domain state (DLS caches, metric buffers) is fine, but a
    helper's starts cold on every fan-out. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI's default width. *)

val init : jobs:int -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] is [[|f 0; ...; f (n-1)|]], running up to [jobs]
    applications on concurrent domains ([min jobs n - 1] helpers plus
    the caller).  Results come back in index order.  Exceptions are
    captured per item; once every item has been attempted, the
    exception of the {e lowest-indexed} failing item is re-raised — the
    same exception the sequential path surfaces.  With [jobs = 1] (or
    [n <= 1]) this is [Array.init n f] and spawns nothing.  Raises
    [Invalid_argument] if [jobs < 1] or [n < 0]. *)

val spawned_domains : unit -> int
(** Helper domains spawned since the process started, cumulative: a
    fan-out of width [jobs] over [n] items adds [min jobs n - 1] (fewer
    under the helper cap).  Oracle: the spawn-and-join and sequential
    supervisor tests (test_parallel, test_supervisor). *)
