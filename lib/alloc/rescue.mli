(** Rx-style "rescue mode" allocator wrapper.

    Rx (Qin et al., SOSP 2005 — discussed in the paper's related work)
    recovers from crashes by rolling back and re-executing with an
    allocator that "selectively ignores double frees, zero-fills buffers,
    pads object requests, and defers frees".  This wrapper implements
    that rescue allocator; the re-execution part is the caller's job
    (run the program once normally; on a crash, run it again from the
    start on a fresh heap wrapped in [rescue] — an exact rollback, since
    our programs are deterministic).

    Used by the Table 1 benchmark to reproduce the Rx column. *)

val wrap : Allocator.t -> Allocator.t
(** One fixed configuration: pad every request by 64 bytes, ignore all
    frees (each counted in {!Stats.t.ignored_frees}), zero-fill
    allocations.  A negative size is passed through unpadded, so the
    allocator rejects it. *)
