(** One address space's obs state, and its fault flight recorder.

    Each {!Dh_mem.Mem} address space owns one recorder, made once with
    the space ([Mem.create ?obs]) and on or off for the space's whole
    life, so nothing about obs is shared between spaces or switched
    under a running one.  A recorder that is on holds a trace ring
    ({!instant}, {!span}; {!events} reads it back), the ambient
    allocation site ({!site}, set through {!Audit.with_site}) and the
    flight reports; one that is off allocates no ring, and every entry
    point below is a no-op whose cost is one field load and a branch.
    A run that owns events tied to no address space (the voter's
    instants) records them into a recorder of its own.

    When a simulated memory fault is raised, or a supervisor attempt
    dies, the instrumented layers call {!trigger} on the recorder of the
    address space concerned: it snapshots that space's last {!window}
    trace events and the caller's sections (the faulting address's
    neighborhood and the counters of the component that raised it) into
    a structured {!report}.  It reads no heap and no audit: a process
    may hold several, and only the triggering component knows which one
    its evidence describes.  The most suspect allocation sites are the
    incident's [offenders].

    A {!Supervisor} incident gathers the records and events of the
    spaces it built, so two runs (in turn or on two domains) never see
    each other's.  A recorder keeps its newest {!max_reports} reports
    and is written by one domain at a time. *)

type section = { title : string; body : string }

type report = {
  at_us : int;  (** Tracing-clock timestamp of the capture. *)
  reason : string;
  step : int option;
      (** For step-structured executions (the serve loop, the replay
          viewer): the request index being handled when the capture
          fired — the cursor position time-travel replay walks back to. *)
  events : Tracing.event list;
      (** The capturing space's last {!window} trace events. *)
  sections : section list;
      (** The caller-supplied sections, in order; a section whose body
          is [""] is not printed. *)
}

val window : int
(** Trace events captured per report (64).  Oracle: the flight-capture
    tests' window bound (test_obs, test_checkpoint). *)

val max_reports : int
(** Reports a recorder retains; older ones are dropped (16). *)

type t
(** A space's obs state: on or off, and when on its trace ring, its
    ambient site, its retained reports and its advertised step. *)

val create : on:bool -> t
(** A recorder, with a trace ring only when [on]; the ambient site is
    [0] ({!Audit.unknown}) and no step is advertised. *)

val on : t -> bool
(** Whether obs is on for this recorder's space. *)

val instant : ?arg:int -> t -> string -> unit
(** Record an instant event, with an int argument (a size, a class, an
    index) that reads back as its [string_of_int]; a no-op when off.
    Recording allocates nothing, and in the release build the [~arg]
    option inlines away at the call site too (test_heap pins a sampled
    instant at 0 minor words); the dev profile's [-opaque] keeps it
    boxed (2 words). *)

val span : ?arg:int -> t -> string -> (unit -> 'a) -> 'a
(** [span t name f] brackets [f] with begin/end events (exception-safe);
    [arg] goes on the begin event.  When off this is [f ()] plus one
    branch. *)

val events : t -> Tracing.event list
(** The ring's retained events (its newest {!Tracing.ring_capacity}),
    oldest first; [[]] when off. *)

val site : t -> int
(** The ambient allocation site. *)

val set_site : t -> int -> unit

val trigger : ?sections:section list -> reason:string -> t -> unit
(** Capture a report into [t] now, holding its own ring's last {!window}
    events.  No-op when off.  The report's step is [t]'s advertised step
    (below), if any. *)

val set_step : t -> int -> unit
(** Advertise the step a step-structured loop is currently executing, so
    captures fired deep inside the handler (the [Mem] fault path) carry
    the cursor position without plumbing.  Cleared by {!clear_step};
    serve loops advertise only while obs is on. *)

val clear_step : t -> unit

val reports : t -> report list
(** The retained reports, oldest first. *)

val last : t -> report option
(** The newest report. *)

(** {1 Step groups}

    When the captured window came from a step-structured execution whose
    steps are bracketed in marker spans (the replay viewer brackets each
    re-executed request in a ["replay.step"] span), the window factors
    into per-step groups that can be walked forwards — the
    time-travel-replay view of the flight record. *)

type step_group = {
  step_arg : string;
      (** The marker's argument (the replayed request index), [""] for
          the preamble group of events before the first marker. *)
  step_events : Tracing.event list;
      (** The marker's [Begin] and everything up to the next marker. *)
}

val step_groups : report -> step_group list
(** Split the report's event window at [Begin] events named
    ["replay.step"].  Events before the first marker form a leading
    group with [step_arg = ""] (omitted when empty). *)

val pp_report : int -> Format.formatter -> report -> unit
(** [pp_report i] prints the report as capture [#i], multi-line: reason,
    recent events and non-empty sections. *)
