(** The output voter (paper §5.2).

    Replicas write standard output into 4 KB buffers; whenever all
    currently-live replicas have terminated or filled their buffers, the
    voter compares buffer contents.  If all agree, one buffer is
    committed.  Otherwise the voter commits a buffer agreed on by at
    least two replicas and kills the rest — "the odds are slim that two
    randomized replicas with memory errors would return the same
    result".  If no two replicas agree, no output can be trusted; when
    every replica disagrees this is the signature of an uninitialized
    read reaching output (§3.2, §6.3). *)

type ballot = {
  replica : int;  (** Replica id. *)
  chunk : string;  (** This replica's buffer contents at the barrier. *)
}

type verdict =
  | Unanimous of string  (** All live replicas agree. *)
  | Majority of { chunk : string; losers : int list }
      (** At least two agree; [losers] must be killed. *)
  | No_quorum
      (** No two replicas agree — nothing can be committed.  With ≥3
          replicas all disagreeing, indicates an uninitialized read. *)

val vote : ballot list -> verdict
(** Requires a non-empty ballot list.  A single live replica is trivially
    unanimous. *)

val chunks_of_output : crashed:bool -> string -> string list
(** Split a replica's complete output into the sequence of barrier
    buffers it would have presented: full 4 KB chunks (4096 bytes, the
    pipe-transfer unit the paper buffers by) plus — only if the
    replica terminated normally — its final partial (possibly empty)
    chunk.  A crashed replica never reached the barrier for its trailing
    partial chunk, so that data is discarded. *)
