(* One pass of a workload: a fixed amount of deterministic work for one
   seed, plus the same work on freelist-lea as the reference. *)
type t = {
  setup_s : float;  (** DieHard set-up: heap creation, parsing, init, warm-up. *)
  measured_s : float;  (** The measured phase on DieHard. *)
  reference_s : float;  (** The same measured work on freelist-lea. *)
  requests : int;  (** Top-level requests completed in the measured phase. *)
  mallocs : int;  (** Allocator malloc calls in the measured phase. *)
  attempted : int;
  failed : int;
  exact : (string * int) list;
      (** Every exact counter of the pass: the determinism fingerprint. *)
  errors : string list;  (** Failed correctness checks. *)
}
