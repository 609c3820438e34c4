(** Memory faults raised by the simulated address space.

    A fault is the simulation's analogue of a hardware trap (SIGSEGV /
    SIGBUS).  Illegal accesses raise {!Error}; {!Process.run} catches it at
    the simulated process boundary and reports the process as crashed —
    exactly the observable behaviour the paper's baseline experiments rely
    on ("crashes with a segmentation fault", §7.3). *)

type access = Read | Write
(** The direction of the faulting access. *)

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

exception Error of t
(** The simulated trap. *)

val raise_fault : t -> 'a
(** Raise {!Error}. *)

val addr : t -> int
(** The offending address: [fault_addr] for [Protect_unmapped], [addr]
    for every other fault. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
