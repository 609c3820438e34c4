(** Survival supervisor: retry-with-reseed, canary diagnosis, and
    graceful degradation for crashing programs.

    DieHard's guarantee is {e probabilistic}: a run that dies under one
    heap randomization seed has an independent chance of surviving under
    a fresh one — the fact the replicated mode (§5) exploits in space,
    this module exploits in time.  The supervisor runs a program under
    an escalation ladder:

    + run under a DieHard heap with a fresh seed — and, for
      service-shaped programs with [checkpoint_interval > 0], under
      copy-on-write checkpoints: a fault {b rewinds} to the last good
      checkpoint in O(dirty pages), reseeds the allocator in place, and
      replays the window, up to [max_rewinds] times per attempt (see
      DESIGN.md, "Rewind-and-discard recovery");
    + on a crash, abort or timeout, {b retry} up to [max_retries] times,
      each with a fresh seed from the {!Dh_rng.Seed} pool and with the
      heap-expansion factor M (and the heap itself) multiplied by
      [backoff] — Theorem 2's masking probability grows with the free
      pool, so each retry is strictly better armoured than the last;
    + if every randomized retry dies, {b degrade} to a final attempt on
      a {!Dh_alloc.Rescue}-wrapped heap (pad requests, defer frees,
      zero-fill) — the Rx-style last resort that trades memory-error
      detection for the best odds of finishing at all;
    + after the first failure, optionally re-execute the identical run
      (same seed, same heap) under {!Dh_alloc.Canary} instrumentation
      purely to {b diagnose} the fault class — buffer overflow, dangling
      write, or wild write — for the incident report.

    Every attempt is recorded in a structured {!incident}: seed, M, heap
    size, mode, outcome, and fuel burned — the crash dump without the
    crash that §9 gestures at, plus the recovery that Rx and the Morello
    rewind-and-discard line make their whole contribution.

    Programs are deterministic functions of their input and allocator
    (the {!Dh_alloc.Program} contract), so re-execution from the start
    is an exact rollback. *)

type policy = {
  max_retries : int;  (** Randomized retries after the first attempt. *)
  backoff : int;
      (** Heap-expansion multiplier applied to M and to the heap size on
          each retry (exponential; 1 = retry on an identical heap). *)
  rescue : bool;  (** Degrade to the rescue allocator when retries die. *)
  diagnose : bool;
      (** Replay the first failure under canary instrumentation to
          classify it.  The replay's outcome is never used for survival;
          its fuel is charged to the incident. *)
  fuel : int;  (** Step budget per attempt. *)
  checkpoint_interval : int;
      (** Requests per copy-on-write checkpoint window for service-shaped
          programs ({!Dh_alloc.Program.service}); 0 disables the rewind
          rung entirely. *)
  max_rewinds : int;
      (** Rewind budget per randomized attempt; once spent, the next
          fault escapes to the classic retry ladder. *)
}

val default_policy : policy
(** 3 retries, backoff 2, rescue and diagnosis on, 50M steps fuel,
    rewind rung off (interval 0; budget 8 when enabled). *)

type mode =
  | Randomized  (** A plain DieHard heap. *)
  | Rescue  (** DieHard wrapped in {!Dh_alloc.Rescue} (degraded). *)

type plan = {
  attempt : int;  (** 0-based attempt number. *)
  seed : int;  (** Heap randomization seed for this attempt. *)
  multiplier : float;  (** M for this attempt. *)
  heap_size : int;  (** Heap bytes for this attempt. *)
  mode : mode;
}

type recovery = {
  checkpoints : int;  (** Checkpoint windows armed during the attempt. *)
  rewinds : int;  (** Faults survived by rewind-and-reseed. *)
  pages_restored : int;  (** Total pages blitted back across rewinds. *)
  preimaged_pages : int;
      (** Copy-on-write page copies taken — the checkpointing overhead
          actually paid, O(dirty) not O(heap). *)
}
(** What the rewind rung did during one attempt.  Reported even when the
    attempt ultimately failed (budget exhausted, fuel out). *)

type attempt_report = {
  plan : plan;
  outcome : Dh_mem.Process.outcome;
  ok : bool;  (** Did this attempt satisfy the success predicate? *)
  fuel_burned : int;
  recovery : recovery option;
      (** [Some] iff the attempt ran under the rewind rung (randomized
          mode, [checkpoint_interval > 0], service-shaped program). *)
}

type verdict =
  | Survived of int  (** Index of the attempt that succeeded. *)
  | Gave_up  (** Every rung of the ladder died. *)

type incident = {
  program : string;
  verdict : verdict;
  attempts : attempt_report list;  (** In execution order. *)
  diagnosis : Dh_alloc.Canary.diagnosis option;
      (** From the canary replay; [None] when diagnosis is off or the
          first attempt succeeded. *)
  canary_violations : Dh_alloc.Canary.violation list;
  output : string option;  (** Output of the surviving attempt. *)
  total_fuel : int;  (** Across all attempts and the diagnosis replay. *)
  flight : Dh_obs.Recorder.report list;
      (** The flight records of the address spaces this run built
          ({!Dh_mem.Mem.recorder}): its ladder attempts' in order, then
          the canary replay's; one per memory fault raised and one per
          non-crash failed rung.  The newest
          {!Dh_obs.Recorder.max_reports} (16) are kept.  No other run's
          capture, earlier or on another domain, appears here.  Always
          [[]] without [config.obs], so incidents from
          un-instrumented runs compare structurally equal. *)
  offenders : Dh_obs.Audit.site_stat list;
      (** Top allocation sites by attributed events (canary hits from
          the diagnosis replay, the fault's own address, rescue
          degradations), then by allocations, from
          {!Dh_obs.Audit.top_sites}.  The replay runs the failed
          attempt's exact seed and heap shape, so its addresses — and
          therefore its site attributions — coincide with the failed
          run's.  Allocation and free counts fold the audits of the
          ladder attempts' heaps only: the replay re-runs a failed
          attempt and would count it twice.  Always [[]] without
          [config.obs] (same contract as [flight]). *)
  latency : Dh_obs.Quantile.t;
      (** This run's serve-loop latencies in nanoseconds, one histogram
          per run: one sample per request a service-shaped program's
          ladder attempts handled, rewound replays included (not the
          diagnosis replay's).  Wall-clock, so two runs' histograms
          differ; empty without [config.obs] or when the program is
          not service-shaped. *)
  events : Dh_obs.Tracing.event list;
      (** The trace events of the address spaces this run built,
          merged in timestamp order: each space's newest
          {!Dh_obs.Tracing.ring_capacity}.  [[]] without [config.obs]. *)
}

val run :
  ?policy:policy ->
  ?config:Config.t ->
  ?seed_pool:Dh_rng.Seed.t ->
  ?input:string ->
  ?policy_kind:Dh_alloc.Policy.kind ->
  ?success:(Dh_mem.Process.result -> bool) ->
  ?wrap:(plan -> Dh_alloc.Allocator.t -> Dh_alloc.Allocator.t) ->
  Dh_alloc.Program.t ->
  incident
(** [run program] executes the escalation ladder.  [config] supplies the
    first attempt's M and heap size, and every rung's replicated fill and
    meshing settings (its seed is ignored — seeds come from
    [seed_pool]); [config.obs] builds every space the run makes with
    obs on.  [success]
    decides whether an attempt's result counts as survival (default:
    exited 0); campaign drivers pass an output-equality check.  [wrap]
    interposes on every attempt's allocator {e including} the canary
    replay — fault-injection benchmarks use it to re-inject the same
    faults (keyed off their own seed, not the plan's) into every rung of
    the ladder.

    Every rung's seed is drawn from [seed_pool] with one up-front
    {!Dh_rng.Seed.split}, so attempt [i] always runs under the pool's
    [i]-th seed no matter how the ladder unfolds.  The canary diagnosis
    replay of a failed first attempt runs after the ladder.  The
    supervisor is sequential: [config.jobs] plays no part in it. *)

(** {1 Time-travel replay} *)

type replay_step = {
  step : int;  (** The re-executed request. *)
  step_output : string;  (** What it printed. *)
  dirty_pages : int;  (** Pages dirty since the checkpoint, after the step. *)
  dirtied : int;  (** Of which the step itself dirtied. *)
  mallocs : int;  (** Allocations the step made. *)
  frees : int;  (** Frees the step made. *)
  live_bytes : int;  (** Change in live bytes. *)
  step_fault : Dh_mem.Fault.t option;  (** The fault the step raised. *)
}

type reproduction =
  | Reproduced  (** The same fault at the same step. *)
  | Diverged of int * Dh_mem.Fault.t
      (** A different fault, or the same one at another step. *)
  | Vanished  (** No fault up to the original step. *)

type replay_fault = {
  fault : Dh_mem.Fault.t;  (** The forward run's first fault. *)
  at : int;  (** The request that raised it. *)
  window : int * int;  (** First and last request of its checkpoint window. *)
  pages_restored : int;  (** Pages the rewind to the window's checkpoint restored. *)
  steps : replay_step list;  (** The window re-executed, in order. *)
  reproduction : reproduction;
  original_bytes : int;  (** Output the window printed up to the fault... *)
  replayed_bytes : int;  (** ...and what the replay printed. *)
  output_matches : bool;  (** Byte for byte. *)
  flight : Dh_obs.Recorder.report option;
      (** The newest flight record of the replay's address space: its
          re-executed fault's (the forward run's when the fault
          vanished); group it with {!Dh_obs.Recorder.step_groups}. *)
}

type replay = {
  first_fault : replay_fault option;  (** [None]: the run never faulted. *)
  outcome : Dh_mem.Process.outcome;
      (** How the simulated process ended: [Exited 0] unless the replay
          itself died (fuel, a non-memory failure). *)
  events : Dh_obs.Tracing.event list;
      (** The replay's address space's trace events, its
          ["replay.step"] spans among them. *)
}

val replay :
  ?input:string ->
  ?fuel:int ->
  config:Config.t ->
  interval:int ->
  Dh_alloc.Program.service ->
  replay
(** [replay ~config ~interval svc] runs [svc] on a DieHard heap built
    from [config] (heap size and seed) under the same checkpoint-window
    loop as the rewind rung, [interval] requests per window, up to its
    first memory fault.  It then rewinds that window {e without}
    reseeding and re-executes it one request at a time, each request in
    a ["replay.step"] span, its index advertised with
    {!Dh_obs.Recorder.set_step} on the address space's own recorder, until the
    fault recurs or the faulting request has run.  Services are
    deterministic functions of their input and placements, so the fault
    must reproduce; a service holding state outside simulated memory
    breaks that contract and is reported as not reproduced.  The replay's
    address space has obs on whatever [config.obs] says, since its step
    spans and flight record are the product (none of the rung's serve
    telemetry is emitted).
    Defaults: empty input, one hundred million steps of fuel.  Raises
    [Invalid_argument] when [interval <= 0]. *)

val pp_incident : Format.formatter -> incident -> unit
(** Multi-line, one row per attempt, plus the diagnosis, the offenders
    and the flight records numbered by position ([#0], [#1], ...). *)
