(** DieHard configuration.

    The paper's two knobs are the heap expansion factor [M] — the heap is
    [M] times larger than the maximum live size it can serve — and, for
    the replicated mode, the number of replicas.  The experiments (§7.1)
    use a 384 MB heap with up to 1/2 available for allocation, i.e.
    [M = 2]. *)

type t = {
  multiplier : float;
      (** M > 1: each size-class region may become at most [1/M] full.
          Fractional values are allowed (the safety-margin audit sweeps
          M = 1.5). *)
  heap_size : int;
      (** Total small-object heap size H in bytes, divided evenly among
          the twelve size-class regions.  Regions are mapped lazily, so a
          large configured heap costs only what is touched. *)
  replicated : bool;
      (** Fill the heap and every allocated object with random values —
          required to detect uninitialized reads across replicas (§4.1,
          §4.2).  Off in stand-alone mode. *)
  seed : int;  (** Seed for the allocator's {!Dh_rng.Mwc} generator. *)
  jobs : int;
      (** Domains {!Replicated.run} fans its replicas out over, via
          {!Dh_parallel.Pool.init}.  Results are seed-planned to be identical
          for every value; [1] (the default) never spawns a domain.  A
          single run's heap is inherently sequential — this knob only
          parallelizes {e across} runs, mirroring the paper's
          process-per-replica model (§5). *)
  obs : bool;
      (** Build the run's address spaces with {!Dh_obs} telemetry on
          (span tracing, audit records, the fault flight recorder, the
          serve loop's latency histogram).  Read only by the runners that
          build spaces from a config — {!Supervisor.run},
          {!Replicated.run}, {!Diagnose.run} — which pass it to
          [Dh_mem.Mem.create ~obs] and return the events of the spaces
          they built; a {!Heap} takes its flag from the space it is
          given.  Telemetry is write-only: it never feeds back into
          execution, so a run's output is identical with it on or off.
          Off by default; the off path is one field load per site. *)
  mesh : bool;
      (** Enable MESH-style page meshing: pages of one size-class region
          whose slot bitmaps are disjoint are merged onto a single
          backing page (see DESIGN.md, "Page meshing").  Pointers and
          placements are untouched — allocation stays uniform-random —
          but the resident-set proxies ({!Dh_mem.Mem.touched_pages},
          [mapped_bytes]) shrink.  Off by default; an off-heap behaves
          byte-identically to a heap built before meshing existed. *)
  mesh_threshold : int;
      (** Freed bytes between automatic mesh passes when [mesh] is on
          (also reachable explicitly via [Heap.mesh]).  Must be
          positive. *)
}

val default : t
(** [M = 2], 24 MiB heap (a simulation-friendly scaling of the paper's
    384 MB default — same M, same twelve regions), stand-alone, seed 1,
    1 job. *)

val v :
  ?multiplier:float ->
  ?heap_size:int ->
  ?replicated:bool ->
  ?seed:int ->
  ?jobs:int ->
  ?obs:bool ->
  ?mesh:bool ->
  ?mesh_threshold:int ->
  unit ->
  t
(** Build a configuration, defaulting missing fields from {!default}.
    Raises [Invalid_argument] if [multiplier <= 1], [jobs < 1],
    [mesh_threshold <= 0], or a region is smaller than [M] objects of
    the largest size class ([heap_size / 12 < 16384 * M]). *)

val objects_in_region : t -> class_:int -> int
(** Capacity in objects of the region for [class_]: each region is
    [heap_size / 12] bytes, page-rounded down. *)

val threshold : t -> class_:int -> int
(** Maximum live objects the region for [class_] may hold
    ([floor (objects / M)]) — allocation beyond this returns NULL
    (§4.2). *)
