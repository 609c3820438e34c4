(** Seed source: a deterministic stand-in for [/dev/urandom].

    The paper seeds each replica's allocator from a source of true
    randomness ([/dev/urandom] on Linux, §4.1).  For a reproducible
    research artifact we replace true randomness with a deterministic
    entropy pool: a master seed expands into an arbitrary stream of
    distinct, well-mixed seeds.  Two pools with different master seeds
    behave like independent entropy sources; re-running with the same
    master seed reproduces every experiment bit-for-bit. *)

type t
(** An entropy pool. *)

val create : master:int -> t
(** [create ~master] builds a pool from a master seed. *)

val fresh : t -> int
(** [fresh t] draws the next seed from the pool.  Successive draws are
    distinct with overwhelming probability and statistically unrelated.

    The pool is mutable: which seed a draw returns depends on how many
    draws preceded it.  Code that fans work out to concurrent domains
    must not call [fresh] from the tasks — use {!split} before the
    fan-out instead. *)

val split : n:int -> t -> int array
(** [split ~n t] draws the next [n] seeds from the pool at once and
    returns them as an immutable-by-convention array: element [i] is
    exactly the seed the [i]-th of [n] successive {!fresh} calls would
    have returned.  This is the only fan-out-safe way to assign seeds to
    parallel tasks — the assignment is fixed before any task runs, so it
    cannot depend on execution interleaving.  Subsequent {!fresh} calls
    continue the stream after the split block. *)
