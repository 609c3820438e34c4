(** The two "real applications" of §7.3, as MiniC programs.

    {2 espresso-sim}

    Stand-in for the espresso logic minimiser used in the fault-injection
    experiment (§7.3.1).  It is allocation-intensive with the structure
    that makes the paper's injected faults bite: it builds linked lists
    of heap cells, keeps a ring of recently-computed arrays, reads back
    through its pointers long after allocation, and frees on a schedule —
    so a prematurely-freed object is overwritten under a reuse-eager
    allocator (garbage read → wrong output, garbage {e pointer} →
    crash), while DieHard's randomized reclamation usually leaves it
    intact.  Output is a deterministic checksum trace.

    {2 squid-sim}

    Stand-in for Squid 2.3s5's heap overflow (§7.3, "Real Faults").  A
    toy web cache: reads one request URL per input line, stores a copy in
    a linked cache, and formats a fixed-size 64-byte title buffer with
    the unchecked [strcpy] that real Squid effectively performed.  A
    well-formed request (URL < 64 bytes) works everywhere.  An ill-formed
    (overlong) URL overflows the title buffer:

    - under the freelist baseline and under the conservative GC the
      buffer's physical neighbour is the just-allocated cache node, so
      the node's header and its URL pointer are smashed and the next
      dereference or allocator operation crashes;
    - under DieHard the node lives in a different size-class region
      entirely and the overflow lands on (mostly free) title slots: the
      cache survives and keeps answering. *)

val espresso_source : string
(** MiniC source. *)

val espresso : unit -> Dh_alloc.Program.t

val squid_source : string
(** MiniC source. *)

val squid : unit -> Dh_alloc.Program.t

(** {2 lindsay-sim}

    Stand-in for the lindsay hypercube simulator, which "has an
    uninitialized read error that DieHard detects and terminates"
    (§7.2.3) — the replicated experiments had to exclude it.  The
    program's final checksum folds in one never-initialized word, so
    stand-alone runs complete quietly while the replicated runtime's
    random fill makes every replica answer differently and the voter
    terminates the run. *)

val lindsay_source : string

val lindsay : unit -> Dh_alloc.Program.t

(** {2 cfrac-sim}

    A bug-free, allocation-intensive application in the spirit of the
    cfrac factorisation benchmark: Pollard's rho allocating a scratch
    "limb" per iteration.  Useful as a correct control program — its
    output must be identical under every allocator and every seed. *)

val cfrac_source : string

val cfrac : unit -> Dh_alloc.Program.t

val squid_good_input : requests:int -> string
(** [requests] well-formed request lines. *)

val squid_attack_input : requests:int -> string
(** Well-formed traffic with one ill-formed (overlong-URL) request in the
    middle — the crash trigger. *)
