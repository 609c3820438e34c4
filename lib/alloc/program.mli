(** Simulated applications.

    A program is the unit the runtimes execute: the stand-alone runtime
    runs it once under a chosen allocator, the replicated runtime runs
    several copies under differently-seeded DieHard heaps and votes on
    their output (paper §5).  Programs are deterministic functions of
    their input and the allocator's behaviour — exactly the
    reproducibility contract replication needs ("we intercept certain
    system calls that could produce different results", §5.3): the
    intercepted time of day is the constant 0 in every run and replica. *)

type context = {
  alloc : Allocator.t;  (** [Policy.allocator policy]. *)
  policy : Policy.t;  (** Mediated heap access for the program's loads/stores. *)
  input : string;  (** The broadcast standard input. *)
  out : Dh_mem.Process.Out.t;  (** The captured standard output. *)
  fuel : Dh_mem.Process.Fuel.t;
      (** Step budget; long-running programs burn it so runaway executions
          are classified as [Timeout]. *)
}

(** {1 Step-structured programs (services)}

    A {e service} is a program factored into an initialization step and a
    per-request step, with {e all} of its mutable state held in simulated
    memory (never in OCaml closures) and request [k]'s content derived
    purely from [k] and the program's input.  That shape is what makes
    rewind-and-discard recovery possible: the supervisor can snapshot
    between requests, and re-invoking [handle k] after a memory rewind
    {e is} resuming from the checkpoint — there is no hidden OCaml state
    to roll back.  (OCaml's one-shot continuations cannot re-resume an
    arbitrary [main] thunk, so resumability must come from program
    structure.) *)

type handler = {
  handle : int -> unit;  (** Process request [k]. *)
  finish : unit -> unit;  (** Emit the epilogue (summary lines, exit). *)
}

type service = {
  requests : int;  (** Total requests a full run handles. *)
  init : context -> handler;
      (** Allocate the service's state (in simulated memory) and return
          its steps.  Closures returned here must hold no mutable OCaml
          state that [handle] writes — the rewind layer cannot restore
          it. *)
}

type t = {
  name : string;
  main : context -> unit;
  service : service option;
      (** Present for programs built with {!of_service}, whose [main] is
          the service run sequentially. *)
}

val make : name:string -> (context -> unit) -> t
(** A program with no step-structured shape. *)

val of_service : name:string -> service -> t
(** The only way to get a service-shaped program: [main] initializes,
    handles requests [0 .. requests-1] in order, and finishes. *)

val context :
  ?policy_kind:Policy.kind ->
  ?input:string ->
  fuel:Dh_mem.Process.Fuel.t ->
  Allocator.t ->
  Dh_mem.Process.Out.t ->
  context
(** The context a program runs under, with the defaults of {!run}. *)

val run :
  ?policy_kind:Policy.kind ->
  ?input:string ->
  ?fuel:int ->
  t ->
  Allocator.t ->
  Dh_mem.Process.result
(** [run program alloc] executes the program as a simulated process under
    the given allocator and classifies the outcome.  Defaults: raw access
    policy, empty input, one hundred million steps of fuel. *)
