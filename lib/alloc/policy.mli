(** Access policies: how loads and stores are mediated.

    The applications in this repository perform every heap access through
    a {!t}; the policy decides what an illegal access does.  This is how
    we reproduce the remaining columns of the paper's Table 1 without
    separate allocators:

    - [Raw] — accesses go straight to simulated memory.  Illegal accesses
      either fault (unmapped / guard page) or silently corrupt whatever is
      there: the C execution model.  Used for the GNU-libc, BDW-GC and
      DieHard columns.
    - [Fail_stop] — every access is checked against the allocator's object
      map; any out-of-bounds or freed-object access aborts the program
      with a diagnostic, and so does any read of heap memory the program
      never wrote (definite-initialization checking).  Models CCured /
      safe-C compilers ("abort" rows).
    - [Oblivious] — out-of-bounds writes are discarded and out-of-bounds
      reads manufacture a value, and execution continues.  Models
      failure-oblivious computing ("undefined" rows — it keeps running but
      with no guarantee of correctness). *)

type kind =
  | Raw
  | Fail_stop
  | Oblivious

type t

val make : ?kind:kind -> Allocator.t -> t
(** [make alloc] mediates accesses to [alloc]'s heap.  Addresses outside
    the allocator's heap (e.g. globals mapped by the application itself)
    are always accessed raw — the policies govern heap discipline only.
    Default kind is [Raw]. *)

(** {1 Mediated access}

    Word operations are 8-byte little-endian, byte operations 1 byte. *)

val load : t -> int -> int
val store : t -> int -> int -> unit
val load8 : t -> int -> int
val store8 : t -> int -> int -> unit
