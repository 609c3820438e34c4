(** Faults raised by the simulated machine.

    A fault is the simulation's analogue of a hardware trap (SIGSEGV /
    SIGBUS, or SIGFPE for an integer division by zero).  Illegal accesses
    to the simulated address space and arithmetic traps raise {!Error};
    {!Process.run} catches it at the simulated process boundary and
    reports the process as crashed — exactly the observable behaviour the
    paper's baseline experiments rely on ("crashes with a segmentation
    fault", §7.3). *)

type access = Read | Write
(** The direction of the faulting access. *)

type arith = Division | Modulo
(** The integer operation whose divisor was zero. *)

type t =
  | Unmapped of { addr : int; access : access }
      (** Access to an address in no mapped segment. *)
  | Protection of { addr : int; access : access }
      (** Access violating a page's protection, e.g. a guard-page hit. *)
  | Unmap_unmapped of { addr : int }
      (** [munmap] of an address that is not a mapped segment base. *)
  | Protect_unmapped of { addr : int; len : int; fault_addr : int }
      (** [protect] of a range [\[addr, addr+len)] that does not lie wholly
          inside one mapped segment; [fault_addr] is the first byte of the
          range outside the segment (the requested range and the actual
          offending address, not a fictitious access). *)
  | Arith_trap of arith
      (** An integer division or modulo by zero: no memory access, so
          no address. *)

exception Error of t
(** The simulated trap. *)

val raise_fault : t -> 'a
(** Raise {!Error}. *)

val addr : t -> int
(** The offending address: [fault_addr] for [Protect_unmapped], 0 for
    [Arith_trap], which touches no memory, and [addr] for every other
    fault. *)

val is_memory : t -> bool
(** Whether the fault is an access to the address space (every fault
    but [Arith_trap]).  The address space captures those itself when it
    raises them. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
