(** Simulated processes.

    A simulated process is an OCaml thunk given an output sink; running it
    classifies how it ended.  Faults of the simulated machine
    ({!Fault.Error}: memory faults and arithmetic traps) become
    [Crashed], deliberate aborts (the fail-stop allocator, assertion-style
    exits) become [Aborted], and runaway executions are cut off by a fuel
    budget — the simulation's stand-in for "entered an infinite loop"
    (§7.3.1 observes exactly that outcome for one injected-fault run). *)

type outcome =
  | Exited of int  (** Normal termination with an exit code. *)
  | Crashed of Fault.t
      (** A fault of the simulated machine — a segfault, or a SIGFPE for
          a division by zero, in the real system. *)
  | Aborted of string  (** Fail-stop termination with a diagnostic. *)
  | Timeout  (** Exhausted its fuel budget (infinite-loop proxy). *)

type result = { outcome : outcome; output : string }

exception Exit_program of int
(** Raised by simulated programs to terminate with a code. *)

exception Abort of string
(** Raised by fail-stop components (e.g. the checked allocator). *)

exception Out_of_fuel
(** Raised by {!Fuel.burn} when the budget is exhausted. *)

(** Fuel budgets: cooperative step counting for loop detection. *)
module Fuel : sig
  type t

  val create : budget:int -> t

  val burn : t -> unit
  (** Consume one unit; raises {!Out_of_fuel} when exhausted. *)

  val remaining : t -> int option
  (** The units left; always [Some]. *)
end

(** The process's standard-output sink. *)
module Out : sig
  type t

  val print_string : t -> string -> unit
  val print_int : t -> int -> unit
  val print_char : t -> char -> unit
  val printf : t -> ('a, Format.formatter, unit) format -> 'a
  val contents : t -> string

  val length : t -> int
  (** Bytes written so far — take it before a checkpointed window so the
      output can be rewound along with memory. *)

  val truncate : t -> int -> unit
  (** [truncate t n] discards everything written after byte [n].  The
      rewind layer uses it to un-print the output of a discarded window
      (raises [Invalid_argument] if [n] exceeds {!length}). *)
end

val run : (Out.t -> unit) -> result
(** [run f] executes [f] as a simulated process: its writes to the sink are
    captured, and the outcome is classified as described above.  Programs
    that want loop cut-off create a {!Fuel.t} and [burn] it at each step;
    {!Out_of_fuel} escaping to [run] is classified as [Timeout].
    Exceptions other than the three above (and fuel exhaustion) propagate —
    they are bugs in the simulation, not simulated crashes. *)

val pp_outcome : Format.formatter -> outcome -> unit

val outcome_to_string : outcome -> string
