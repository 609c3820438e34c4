(** A stub: [Dh_obs] keeps no sliding-window counters. *)

val reset : unit -> unit
(** A no-op.  Benchmark: perfbench's serve pass calls it; ROADMAP item 7
    drops this module with that call. *)
