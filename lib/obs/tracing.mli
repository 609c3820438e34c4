(** Span tracing: a lock-free per-domain ring buffer of begin/end/instant
    events stamped from the monotonic clock.

    Each domain records into its own fixed-capacity ring (a {!Cell}
    value), so recording never synchronizes with other domains; the ring
    overwrites its oldest events when full, and its tail is exactly the
    window a {!Recorder} flight capture wants ({!last_events}).  The
    exports ({!events}, {!to_chrome_json}) merge every ring and sort by
    timestamp; they are intended for idle moments (process exit) and
    tolerate concurrent writers by accepting a slightly stale tail.

    All recording is a no-op while {!Control.enabled} is false. *)

type phase = Begin | End | Instant

type event = {
  ts : int;
      (** Microseconds since this module was initialised, on the
          {!now_ns} clock. *)
  dom : int;  (** Recording domain's id. *)
  phase : phase;
  name : string;
  arg : string;  (** Free-form annotation; [""] when absent. *)
}

val ring_capacity : int
(** Events retained per domain (the oldest are overwritten). *)

val now_ns : unit -> int
(** The one clock: the platform's monotonic clock in nanoseconds (an
    arbitrary origin, so only differences mean anything).  Latency
    samples read it directly; trace stamps are its microseconds since
    initialisation. *)

val elapsed_ns : since:int -> now:int -> int
(** [now - since], or 0 when the stamps run backwards: a latency sample
    is never negative (histograms reject negative samples). *)

val instant : ?arg:string -> string -> unit

val span : ?arg:string -> string -> (unit -> 'a) -> 'a
(** [span name f] brackets [f] with begin/end events (exception-safe).
    When tracing is disabled this is [f ()] plus one branch. *)

val events : unit -> event list
(** Every retained event across all domains, in timestamp order. *)

val last_events : int -> event list
(** The calling domain's most recent [n] retained events, oldest first:
    one ring's tail, with no merge and no sort.  A flight capture's
    window, so a fault on one domain records none of another domain's
    concurrent events. *)

val recorded : unit -> int
(** Total events recorded since the last {!reset}, including ones the
    rings have since overwritten. *)

val dropped : unit -> int
(** Events lost to ring overwrite since the last {!reset}. *)

val reset : unit -> unit
(** Empty every ring (the rings themselves persist with their domains). *)

val to_chrome_json : unit -> string
(** The merged events as Chrome [trace_event] JSON (an object with a
    [traceEvents] array of [B]/[E]/[i] events; load it at
    [chrome://tracing] or in Perfetto). *)

val write_chrome_json : path:string -> unit -> unit

val pp_event : Format.formatter -> event -> unit
