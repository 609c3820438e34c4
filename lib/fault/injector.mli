(** The fault-injection library of §7.3.1.

    "We implement two libraries that inject memory errors into unaltered
    applications … The fault injector triggers errors probabilistically,
    based on the requested frequencies.  To trigger an underflow, it
    requests less memory from the underlying allocator than was requested
    by the application.  To trigger a dangling pointer error, it uses the
    log to invoke free on an object before it is actually freed by the
    application, and ignores the subsequent (actual) call to free this
    object."

    The injector sits between the application and the memory allocator as
    a wrapping {!Dh_alloc.Allocator.t}.  Dangling-pointer injection is
    trace-driven: it needs the allocation log from a previous run under
    the {!Dh_alloc.Trace} allocator.  It counts to that log on the same
    clock: the injector wraps its allocator in a {!Dh_alloc.Trace} of its
    own and reads the allocation time and the live objects from it. *)

type spec = {
  underflow_rate : float;
      (** Probability that an allocation is under-allocated. *)
  underflow_bytes : int;  (** How many bytes to shave off (paper: 4). *)
  underflow_min_size : int;
      (** Only under-allocate requests at least this large (paper: 32). *)
  dangling_rate : float;
      (** Probability that a freed object is freed early instead. *)
  dangling_distance : int;
      (** How many allocations early to free it (paper: 10). *)
  double_free_rate : float;
      (** Probability that an accepted [free] is issued twice —
          exercises the Table 1 "double frees" row. *)
  invalid_free_rate : float;
      (** Probability that a bogus interior pointer is also freed. *)
  seed : int;  (** Injection randomness (independent of the heap's). *)
}

val nothing : spec
(** All rates zero — the identity wrapper.  Oracle: the injector and
    campaign tests vary one rate of it, or run it as the no-fault
    control. *)

val paper_dangling : spec
(** §7.3.1's first experiment: dangling rate 1/2, distance 10. *)

val paper_overflow : spec
(** §7.3.1's second experiment: 1% of allocations of ≥ 32 bytes
    under-allocated by 4 bytes. *)

val wrap : spec -> log:Dh_alloc.Trace.lifetime list -> Dh_alloc.Allocator.t -> Dh_alloc.Allocator.t
(** [wrap spec ~log alloc] is an allocator that forwards to [alloc]
    while injecting the configured faults.
    [log] is the allocation log from a tracing run of the same program
    (pass [\[\]] when only injecting underflows).

    Dangling injection follows the paper's mechanism: an object whose log
    entry says it is freed at allocation-time [f] is (with probability
    [dangling_rate]) freed as soon as the allocation clock reaches
    [f - dangling_distance]; the application's own later [free] of that
    pointer is then {e ignored} (swallowed by the wrapper, so allocators
    that would misbehave on the double free are not spuriously
    triggered — the injected error is purely the premature free).  The
    early free goes through the wrapper's trace, so its clock forgets the
    object; injected double and invalid frees go straight to [alloc]. *)
