(** Fault flight recorder.

    When a simulated memory fault is raised, or a supervisor attempt
    dies, the instrumented layers call {!trigger} on the recorder of the
    address space concerned: it snapshots the calling domain's last
    {!window} trace events and the caller's sections (the faulting
    address's neighborhood and the counters of the component that raised
    it) into a structured {!report}.  It reads no heap and no audit: a
    process may hold several, and only the triggering component knows
    which one its evidence describes.  The most suspect allocation sites
    are the incident's [offenders].

    Each {!Dh_mem.Mem} address space owns one recorder, so a fault's
    evidence stays with the space that faulted: a {!Supervisor} incident
    gathers the records of the spaces it built, and two runs (in turn or
    on two domains) never see each other's.  A recorder keeps its newest
    {!max_reports} reports and is written by one domain at a time.

    {!trigger} is a no-op while {!Control.enabled} is false. *)

type section = { title : string; body : string }

type report = {
  at_us : int;  (** Tracing-clock timestamp of the capture. *)
  reason : string;
  step : int option;
      (** For step-structured executions (the serve loop, the replay
          viewer): the request index being handled when the capture
          fired — the cursor position time-travel replay walks back to. *)
  events : Tracing.event list;
      (** The capturing domain's last {!window} trace events. *)
  sections : section list;
      (** The caller-supplied sections, in order; a section whose body
          is [""] is not printed. *)
}

val window : int
(** Trace events captured per report (64). *)

val max_reports : int
(** Reports a recorder retains; older ones are dropped (16). *)

type t
(** A recorder: its retained reports and its advertised step. *)

val create : unit -> t
(** An empty recorder with no step advertised. *)

val trigger : ?sections:section list -> reason:string -> t -> unit
(** Capture a report into [t] now.  No-op when observability is
    disabled.  The report's step is [t]'s advertised step (below), if
    any. *)

val set_step : t -> int -> unit
(** Advertise the step a step-structured loop is currently executing, so
    captures fired deep inside the handler (the [Mem] fault path) carry
    the cursor position without plumbing.  Cleared by {!clear_step};
    serve loops advertise only while observability is enabled. *)

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
