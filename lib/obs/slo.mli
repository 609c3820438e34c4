(** SLO accounting: a latency target plus an error budget, tracked per
    request, with budget-burn alerts surfaced as trace instants.

    An SLO says: at most a [budget] fraction of requests may be {e bad}
    — errored, or slower than [target].  {!record} classifies one
    request; {!report} folds the tally into a compliance ratio and the
    fraction of the error budget consumed.  As the budget burns through
    each alert threshold (50%, 100%), {!record} emits a single
    ["slo.budget_burn"] {!Tracing.instant} — so a trace of a degrading
    serve run shows exactly when the SLO started drowning, and the
    flight recorder's event window catches it on a later fault.

    Counters are plain mutable ints: an SLO belongs to one recording
    loop (the serve loop), like a {!Cell} value.
    {!record} is a no-op while {!Control.enabled} is false.

    A process-wide {e active} slot lets a driver (the serve bench, the
    CLI) install the SLO and the supervisor's serve loop find it without
    threading a value through every layer: {!configure} installs a fresh
    SLO, {!active} reads the slot, {!deactivate} clears it. *)

type t

val create : ?name:string -> target:int -> budget:float -> unit -> t
(** [target] is the latency bound in the recorder's own unit (the serve
    loop records nanoseconds); [budget] the allowed bad fraction in
    (0, 1].  Raises [Invalid_argument] otherwise. *)

val record : t -> ?error:bool -> int -> unit
(** [record t latency] classifies one request: bad iff [error] (default
    false) or [latency > target t]. *)

type report = {
  total : int;  (** Requests recorded. *)
  bad : int;  (** Errored or over-target requests. *)
  compliance : float;  (** [1 - bad/total]; 1.0 when no requests ran. *)
  budget_used : float;
      (** [(bad/total) / budget] — above 1.0 the SLO is breached.  0.0
          when no requests ran. *)
  breached : bool;  (** [budget_used > 1.0]. *)
}

val report : t -> report

(** {1 The process-wide active SLO} *)

val configure : ?name:string -> target:int -> budget:float -> unit -> t
(** Install (and return) a fresh SLO as the active one. *)

val active : unit -> t option

val deactivate : unit -> unit
