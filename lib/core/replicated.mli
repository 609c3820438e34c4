(** The replicated DieHard runtime (paper §5).

    Runs [k] replicas of a program, each against its own simulated address
    space and its own DieHard heap seeded differently (so every replica
    has a different heap layout), broadcasts the same input to all, and
    commits output through the {!Voter} barrier by barrier.

    Where the paper forks processes, redirects them with [LD_PRELOAD] and
    synchronises over pipes and shared memory, this simulation runs the
    replicas to completion and then replays the barrier protocol over
    their captured outputs — observationally equivalent for programs whose
    only interaction is stdin/stdout, which is exactly the class the
    paper's replicated mode targets.

    With [config.jobs > 1] the replicas execute on separate OCaml
    domains through {!Dh_parallel.Pool.init} — the paper's process-level
    parallelism (§6's 16-way SMP runs) made real.  Seeds are assigned by
    one {!Dh_rng.Seed.split} block drawn before the fan-out and the voter
    consumes reports in replica-id order, so the report is byte-identical
    for every [jobs] setting. *)

type cause =
  | Voted_out of int  (** Killed by the voter at this barrier index. *)
  | Died  (** Crashed, aborted or timed out before finishing. *)

type replica_report = {
  id : int;
  seed : int;
  outcome : Dh_mem.Process.outcome;
  eliminated : cause option;  (** [None] = survived to the end. *)
}

type verdict =
  | Agreed
      (** All output committed; at least one replica finished normally. *)
  | Uninit_read_detected
      (** At some barrier every live replica (≥ 3) produced distinct
          output — the signature of an uninitialized read (§3.2, §6.3);
          execution terminates. *)
  | No_quorum
      (** Live replicas disagreed with no two alike, but fewer than three
          were left — the voter cannot decide (§6's k ≠ 2 caveat). *)
  | All_died  (** Every replica crashed before any could finish. *)

type report = {
  verdict : verdict;
  output : string;  (** Output committed before termination. *)
  barriers : int;  (** Barrier synchronisations performed. *)
  replicas : replica_report list;
  events : Dh_obs.Tracing.event list;
      (** With [config.obs]: the trace events of the replicas' address
          spaces and the voter's instants, merged; [[]] without. *)
}

val run :
  ?config:Config.t ->
  ?replicas:int ->
  ?seed_pool:Dh_rng.Seed.t ->
  ?input:string ->
  ?fuel:int ->
  Dh_alloc.Program.t ->
  report
(** [run program] executes the replicated protocol.  [config]'s
    [replicated] flag is forced on (random fill is what makes
    uninitialized reads diverge); its [seed] is replaced per replica from
    [seed_pool].  Defaults: 3 replicas, {!Config.default} sizes.

    The roster is fixed: a replica that dies or is voted out stays out,
    and [replicas] lists exactly the [k] originals in id order.  (§5.2
    only proposes replacing failed replicas with freshly seeded copies;
    this runtime does not.)

    The number of replicas must be 1 or ≥ 3 — with two, the voter cannot
    break ties (§6). *)

val run_program_once :
  ?config:Config.t ->
  ?seed:int ->
  ?input:string ->
  ?fuel:int ->
  Dh_alloc.Program.t ->
  Dh_mem.Process.result
(** Stand-alone mode: one replica, one DieHard heap, no voting — the
    drop-in-replacement configuration of §2. *)
