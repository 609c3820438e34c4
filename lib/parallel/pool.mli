(** A fixed-width view onto a process-wide, long-lived worker-domain
    pool, for embarrassingly parallel fan-out.

    The paper's replicated runtime runs its k replicas as concurrent
    processes and reports that on idle cores a 16-way run costs about
    one run's wall-clock (§6, Fig. 4–5).  Every execution in this
    reproduction — a replica, an injected trial, a Monte-Carlo sample —
    owns a private {!Dh_mem.Mem.t} address space and a per-heap RNG, so
    runs share no mutable state and map directly onto OCaml 5 domains.

    {b Worker reuse}: domains are spawned at most once per process and
    parked on a condition variable between fan-outs.  {!init} borrows up
    to [jobs - 1] idle workers, submits one chunk-claiming batch closure
    to each, participates from the calling domain, and returns the
    workers to the shared pool when the batch drains.  Two
    successive calls reuse the same domains ({!spawned_domains} is how
    tests pin this down); the old spawn-per-call design paid a domain
    spawn/join per fan-out, which is where `--jobs n` used to lose to
    `--jobs 1`.

    The pool is deliberately work-stealing-free: items are claimed in
    chunks off a shared cursor.  Tasks here are coarse (whole program
    runs), so chunked self-scheduling balances well without queues.

    {b Determinism contract}: [init ~pool n f] returns results in index
    order and [f] receives exactly the same arguments regardless of
    [jobs] — any seed material must be assigned {e before} the fan-out
    (see {!Dh_rng.Seed.split}).  Given a pure [f], the
    result is byte-identical for every [jobs] setting, and also when a
    nested fan-out finds every worker busy and runs with fewer helpers.

    {b Safety contract}: [f] must not touch mutable state shared with
    other items (each call should build its own [Mem.t], heap, and
    RNGs — the natural shape of every run in this codebase).
    Per-domain state (DLS caches, metric buffers) is fine: workers are
    long-lived, so domain-local caches stay warm across fan-outs. *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] builds a pool view that runs at most [jobs] items
    concurrently.  Default: [Domain.recommended_domain_count ()].
    [jobs = 1] selects the exact sequential path (no workers are ever
    borrowed).  Raises [Invalid_argument] if [jobs < 1].  Creating a
    pool is free: worker domains are spawned lazily, on first use,
    and shared by every pool in the process. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool's default width. *)

val jobs : t -> int
(** The width this pool was created with. *)

val init : pool:t -> int -> (int -> 'a) -> 'a array
(** [init ~pool n f] is [[|f 0; ...; f (n-1)|]], running up to
    [jobs pool] applications on concurrent domains.  Results come back
    in index order.  Exceptions are captured per item; once every item
    has been attempted, the exception of the {e lowest-indexed} failing
    item is re-raised — the same exception the sequential path surfaces.
    With [jobs = 1] (or [n <= 1]) this is [Array.init n f].  Raises
    [Invalid_argument] if [n < 0]. *)

val spawned_domains : unit -> int
(** Worker domains spawned by the process-wide pool since the last
    {!quiesce} — {e stable} across repeated fan-outs of the same width:
    reuse means two successive {!init} calls leave it unchanged.
    Introspection for tests and capacity audits. *)

val quiesce : unit -> unit
(** Retire and join every pooled worker domain.  A parked domain is not
    free: it remains a full participant in the OCaml runtime's
    stop-the-world sections, so after any fan-out, {e purely sequential}
    code pays a cross-domain barrier on every minor collection — a large
    constant factor on small machines.  Call this at the boundary from a
    parallel phase to a long sequential one; the next fan-out respawns
    workers transparently ({!spawned_domains} restarts from there).
    Workers still running a job finish it first.  Must not be called
    concurrently with an in-flight fan-out on another thread. *)
