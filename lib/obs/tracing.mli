(** Span tracing: trace events, the fixed-capacity ring that holds them,
    the one clock that stamps them, and their Chrome JSON export.

    A ring belongs to one address space's {!Recorder}, which records
    into it only while that space has obs on, so a ring has one writer
    and recording never synchronizes; it overwrites its oldest events
    when full, and its tail is exactly the window a flight capture wants
    ({!tail}).  Events tied to no address space (the voter's) go into a
    ring the run owns, through a recorder of its own.  A run returns the
    retained events of the rings it owned, merged ({!merge}); the
    exports take such a list. *)

type phase = Begin | End | Instant

type event = {
  ts : int;
      (** Microseconds since this module was initialised, on the
          {!now_ns} clock. *)
  dom : int;  (** The id of the domain that made the ring. *)
  phase : phase;
  name : string;
  arg : string;  (** Free-form annotation; [""] when absent. *)
}

val ring_capacity : int
(** Events a ring retains (the oldest are overwritten): 4096. *)

val now_ns : unit -> int
(** The one clock: the platform's monotonic clock in nanoseconds (an
    arbitrary origin, so only differences mean anything).  Latency
    samples read it directly; trace stamps are its microseconds since
    initialisation. *)

val elapsed_ns : since:int -> now:int -> int
(** [now - since], or 0 when the stamps run backwards: a latency sample
    is never negative (histograms reject negative samples). *)

type ring
(** A ring of the last {!ring_capacity} events, written by one domain at
    a time. *)

val ring : unit -> ring
(** An empty ring, its events stamped with the calling domain's id. *)

val record : ring -> phase -> string -> string -> unit
(** [record r phase name arg] appends one event stamped now. *)

val tail : ring -> int -> event list
(** The ring's newest [n] retained events, oldest first. *)

val merge : event list list -> event list
(** Several rings' events as one list in timestamp order (then domain
    id); events with equal keys keep the order they were handed in. *)

val write_chrome_json : path:string -> event list -> unit
(** Write the events to [path] as Chrome [trace_event] JSON (an object
    with a [traceEvents] array of [B]/[E]/[i] events; load it at
    [chrome://tracing] or in Perfetto). *)

val pp_event : Format.formatter -> event -> unit
