(** Fault flight recorder.

    When a simulated memory fault is raised, or a supervisor attempt
    dies, the instrumented layers call {!trigger}: the recorder
    snapshots the last {!window} trace events and the caller's sections
    (the faulting address's neighborhood and the counters of the
    component that raised it) into a structured {!report}.  It reads no
    heap and no audit: a process may hold several, and only the
    triggering component knows which one its evidence describes.  The
    most suspect allocation sites are the incident's [offenders].  Reports
    accumulate in a bounded queue that {!Supervisor} drains into its
    incidents and the CLI prints.

    Everything is a no-op while {!Control.enabled} is false. *)

type section = { title : string; body : string }

type report = {
  seq : int;  (** Capture sequence number (process-wide). *)
  at_us : int;  (** Tracing-clock timestamp of the capture. *)
  reason : string;
  step : int option;
      (** For step-structured executions (the serve loop, the replay
          viewer): the request index being handled when the capture
          fired — the cursor position time-travel replay walks back to. *)
  events : Tracing.event list;  (** The last {!window} trace events. *)
  sections : section list;
      (** The caller-supplied sections, in order; a section whose body
          is [""] is not printed. *)
}

val window : int
(** Trace events captured per report (64). *)

val max_reports : int
(** Reports retained; older ones are dropped (16). *)

val trigger : ?sections:section list -> reason:string -> unit -> unit
(** Capture a report now.  No-op when observability is disabled.  The
    report's step is the advertised step (below), if any. *)

val set_step : int -> unit
(** Advertise the step a step-structured loop is currently executing, so
    captures fired deep inside the handler (the [Mem] fault path) carry
    the cursor position without plumbing.  Cleared by {!clear_step};
    serve loops advertise only while observability is enabled. *)

val clear_step : unit -> unit

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

val reports : unit -> report list  (** Oldest first. *)

val take : unit -> report list
(** Drain: return the retained reports (oldest first) and clear them. *)

val last : unit -> report option
val clear : unit -> unit  (** Drop the retained reports. *)

val pp_report : Format.formatter -> report -> unit
(** Multi-line: reason, recent events and non-empty sections. *)
