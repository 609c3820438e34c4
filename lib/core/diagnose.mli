(** Memory-error diagnosis by heap differencing (paper §9).

    "Beyond error tolerance, DieHard also can be used to debug memory
    corruption.  By differencing the heaps of correct and incorrect
    executions of applications, it may be possible to pinpoint the exact
    locations of memory errors and report these as part of a crash dump
    without the crash."

    This module implements that idea over the replicated runtime: run k
    replicas (each with a differently-randomized heap), then compare the
    contents of corresponding live objects word by word.  Objects
    correspond across replicas by {e allocation index} — the programs are
    deterministic, so the n-th allocation is the same logical object
    everywhere even though its address differs.  The index is the
    allocation clock of {!Dh_alloc.Trace}: each replica runs on a traced
    heap, and its live objects are read from that trace in ascending
    index order.

    A word can legitimately differ across replicas when it stores a
    {e pointer} (addresses are randomized); the differ normalizes this by
    resolving each replica's value against that replica's own heap — if
    every replica's value points at the same logical object (same
    allocation index, same interior offset), the word is consistent.

    Remaining divergences are classified:
    - {b Uninit_like}: every replica holds a different, unresolvable
      value — the signature of memory that was never written (each
      replica sees its own random fill);
    - {b Corruption_like}: a minority of replicas disagrees with an
      agreeing majority — the signature of a wild write (overflow,
      dangling-pointer scribble) that landed on this object only in the
      replicas whose random layout put a victim there. *)

type kind =
  | Uninit_like
  | Corruption_like of int list  (** The replica ids holding outlier values. *)

type suspect = {
  alloc_index : int;  (** Which allocation (1-based, in program order). *)
  size : int;  (** The object's requested size. *)
  offset : int;  (** Byte offset of the divergent word within the object. *)
  kind : kind;
}

type report = {
  replicas : int;
  objects_compared : int;
  words_compared : int;
  suspects : suspect list;  (** In (allocation, offset) order. *)
  events : Dh_obs.Tracing.event list;
      (** With [config.obs]: the replicas' address spaces' trace
          events, merged; [[]] without. *)
}

val run :
  ?config:Config.t ->
  ?replicas:int ->
  ?seed_pool:Dh_rng.Seed.t ->
  ?input:string ->
  ?fuel:int ->
  Dh_alloc.Program.t ->
  report
(** Runs [replicas] (default 3) instrumented replicas to completion and
    diffs their heaps.  Only objects still live at the end in {e every}
    replica are compared (freed slots may legitimately hold anything),
    and only whole words within the requested size (trailing padding
    holds each replica's random fill by design). *)

val pp_report : Format.formatter -> report -> unit
