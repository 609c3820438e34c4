(** Fault-injection campaigns: the experimental procedure of §7.3.1.

    A campaign replays the paper's methodology end to end:

    + run the application once under a {e tracing} allocator to obtain
      the allocation log;
    + run it once cleanly to obtain the reference output;
    + run it [trials] times with the fault injector interposed, a fresh
      heap (and fresh injection randomness) each time;
    + classify every run: correct output, wrong output, crash, abort, or
      timeout (the paper observed espresso "enter an infinite loop" in
      one injected run).

    The paper's headline numbers have this form: with dangling injection
    (50% @ distance 10) espresso never completes under the default
    allocator but runs correctly in 9 of 10 runs under DieHard; with
    overflow injection (1%, 4 bytes off ≥32-byte requests) it crashes 9
    of 10 times under the default allocator (looping in the tenth) but
    runs correctly 10 of 10 under DieHard. *)

type classification =
  | Correct  (** Exited 0 with exactly the reference output. *)
  | Wrong_output  (** Exited 0 but produced different output. *)
  | Crashed
  | Aborted
  | Timed_out

type tally = {
  trials : int;
  correct : int;
  wrong_output : int;
  crashed : int;
  aborted : int;
  timed_out : int;
  runs : classification list;  (** Per-trial, in order. *)
  events : Dh_obs.Tracing.event list;
      (** The trace events of the address spaces of the allocators
          [make_alloc] built, merged: the tracing run's, in a
          ["campaign.trace"] span, and each trial's, in a
          ["campaign.trial"] span.  [[]] when every one was built with
          obs off. *)
}

val classify : reference:string -> Dh_mem.Process.result -> classification

type error =
  | Tracing_failed of { outcome : Dh_mem.Process.outcome; output : string }
      (** The uninjected tracing run itself did not exit cleanly — the
          program (or the allocator under test) is broken before any
          fault is injected, so there is no log and no reference output
          to campaign against. *)

val error_to_string : error -> string

val run :
  ?input:string ->
  ?fuel:int ->
  ?jobs:int ->
  trials:int ->
  spec:Injector.spec ->
  make_alloc:(trial:int -> Dh_alloc.Allocator.t) ->
  Dh_alloc.Program.t ->
  (tally, error) result
(** [run ~trials ~spec ~make_alloc program] executes the full campaign.
    [make_alloc ~trial] must build a fresh allocator on a fresh address
    space; trial 0 is used for the tracing and reference runs, trials
    1..n for injection (each receives injection seed [spec.seed + trial]
    so runs differ, as the paper's ten runs do).  Returns [Error] when
    the tracing run fails, so drivers running many campaigns can report
    the broken one and keep going.  Raises [Invalid_argument] if
    [trials < 0] or [jobs < 1].

    [jobs] (default 1) fans the injected trials out across that many
    domains via {!Dh_parallel.Pool}; the tracing run stays sequential and
    classifications are merged in trial order, so the tally — including
    the per-trial [runs] list — is identical for every [jobs] value.
    When [jobs > 1], [make_alloc] must be safe to call from concurrent
    domains (i.e. each call builds fully private state — a fresh
    [Mem.t]-backed allocator satisfies this). *)

val run_exn :
  ?input:string ->
  ?fuel:int ->
  ?jobs:int ->
  trials:int ->
  spec:Injector.spec ->
  make_alloc:(trial:int -> Dh_alloc.Allocator.t) ->
  Dh_alloc.Program.t ->
  tally
(** {!run}, raising [Failure] on a tracing failure — for tests and
    one-shot drivers where tearing down is the right degradation. *)

val pp_tally : Format.formatter -> tally -> unit
(** e.g. "9/10 correct, 1/10 crashed". *)
