(** Global observability switch.

    Every recording entry point in {!Quantile}, {!Tracing} and
    {!Recorder} starts with a single load-and-branch on this flag; when
    it is off (the default) the whole telemetry stack is a no-op whose
    cost is that branch.  The throughput gate of [bench/main.exe]
    holds the disabled path within 5% of its committed rate. *)

val enabled : unit -> bool
(** One atomic load; safe (and cheap) to call on hot paths. *)

val set_enabled : bool -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run a thunk with the switch forced to a value, restoring the
    previous value afterwards (exception-safe). *)
