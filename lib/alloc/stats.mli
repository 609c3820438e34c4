(** Shared allocation counters.

    Every allocator in the repository carries one of these; the benchmark
    harness reads them to report operation counts, probe counts (§4.2's
    expected-probes analysis) and live-heap high-water marks. *)

type t = {
  mutable mallocs : int;  (** Successful allocations. *)
  mutable failed_mallocs : int;  (** Allocations that returned NULL. *)
  mutable frees : int;  (** [free] calls accepted. *)
  mutable ignored_frees : int;
      (** [free] calls ignored as invalid/double (DieHard's validation). *)
  mutable probes : int;
      (** Bitmap probes performed (DieHard) — drives the §4.2 analysis. *)
  mutable bytes_requested : int;  (** Sum of requested sizes. *)
  mutable bytes_allocated : int;
      (** Sum of sizes actually reserved (after rounding). *)
  mutable live_objects : int;
  mutable live_bytes : int;  (** Currently-live reserved bytes. *)
  mutable peak_live_bytes : int;
  mutable gc_collections : int;  (** Mark-sweep passes (GC allocator). *)
}

val create : unit -> t

val copy : t -> t
(** An independent duplicate of the current counter values. *)

val assign : t -> from:t -> unit
(** Overwrite [t]'s counters with [from]'s in place, so every alias of
    [t] (an allocator record's [stats]) sees the restored values. *)

val on_malloc : t -> requested:int -> reserved:int -> unit
(** Record a successful allocation and update live accounting. *)

val on_free : t -> reserved:int -> unit
(** Record an accepted free of an object of [reserved] bytes. *)

val pp : Format.formatter -> t -> unit
(** Counts plus the derived probes-per-malloc ratio; the ratio prints as
    ["-"] on an empty run (no division by zero). *)
