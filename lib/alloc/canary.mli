(** DieFast-style canary instrumentation for fault diagnosis.

    DieFast (the testing-mode companion the DieHard authors built next,
    and the direction §9's "debugging memory corruption" points at)
    trades masking for {e detection}: instead of leaving freed memory
    and slot padding untouched, it fills them with a known pseudo-random
    canary and checks the canary at every reuse boundary.  A corrupted
    tail canary means something wrote past the end of a live object
    (buffer overflow); a corrupted free-slot canary means something
    wrote through a stale pointer (dangling write).

    This wrapper implements that discipline over any fixed-slot,
    out-of-band allocator — in practice the DieHard heap in stand-alone
    (non-replicated) mode, whose freed slots are never scribbled on by
    the allocator itself.  Do not wrap the freelist baseline (it keeps
    its bins {e inside} freed chunks) or a replicated-mode heap (its
    random object fill destroys the canaries); the diagnosis would
    report the allocator's own writes.

    Because filling freed slots destroys the stale data that DieHard's
    masking lets dangling {e reads} get away with, canary runs are a
    diagnosis instrument, not a survival mode: {!Diehard.Supervisor}
    re-executes a failed run under this wrapper purely to classify the
    failure, then discards the instrumented run's outcome. *)

type violation_kind =
  | Tail_overflow
      (** Bytes between an object's requested size and its slot size
          were overwritten while the object was live. *)
  | Freed_write
      (** A freed slot's fill pattern was overwritten before the slot
          was reused. *)

type detected_at =
  | On_free  (** Caught checking the tail when the object was freed. *)
  | On_reuse  (** Caught when the underlying allocator reissued the slot. *)
  | On_sweep  (** Caught by an explicit {!sweep}. *)

type violation = {
  kind : violation_kind;
  addr : int;  (** Base address of the damaged slot. *)
  size : int;  (** Slot size (for {!Freed_write}) or requested size. *)
  offset : int;  (** Offset from [addr] of the first corrupted byte. *)
  detected : detected_at;
}

type t

val wrap : Allocator.t -> t * Allocator.t
(** [wrap alloc] returns the canary state and an allocator that forwards
    to [alloc] while maintaining the canaries: slot tails are filled on
    allocation and checked on free; whole slots are filled on free and
    checked when the slot comes back from [malloc].  A fixed key (0xD1E)
    hashes each address into its canary byte, so canary bytes are not
    one guessable constant. *)

val sweep : t -> unit
(** Check every live tail and every still-filled freed slot now —
    called after a run ends (even a crashed one) to catch corruption
    the free/reuse boundaries never saw. *)

val violations : t -> violation list
(** All recorded violations, oldest first. *)

(** {1 Diagnosis} *)

type diagnosis =
  | Buffer_overflow  (** Tail canary died, or a guard page was hit. *)
  | Dangling_write  (** A freed slot's canary died. *)
  | Wild_write  (** Faulting store to an address owned by no object. *)
  | Wild_read  (** Faulting load from an address owned by no object. *)
  | Unclear  (** No canary evidence and no fault to classify. *)

val diagnose : ?fault:Dh_mem.Fault.t -> t -> diagnosis
(** Classify why a run died (or misbehaved): canary evidence wins —
    tail violations over freed-slot violations, since an overflow often
    drags wild damage behind it — and the crash fault, when provided,
    breaks ties for runs that died without touching a canary. *)

val diagnosis_to_string : diagnosis -> string

val pp_violation : Format.formatter -> violation -> unit
