(** A stub: [Dh_obs] keeps no sliding-window counters. *)

val reset : unit -> unit
(** A no-op, kept because the repo benchmark's serve pass calls it. *)
