(** Allocation bitmaps.

    DieHard's only per-object metadata is one bit in a per-region bitmap
    (paper §4.1: "one bit always stands for one object").  The bitmap lives
    outside the simulated heap — in ordinary OCaml memory — which is
    precisely the metadata segregation the paper relies on: no simulated
    store can corrupt it. *)

type t

val create : int -> t
(** [create n] is an all-clear bitmap of [n] bits. *)

val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val cardinal : t -> int
(** Number of set bits (maintained incrementally, O(1)). *)

val copy : t -> t
(** An independent duplicate — the bitmap half of a heap snapshot. *)

val assign : t -> from:t -> unit
(** [assign t ~from] overwrites [t] with [from]'s contents in place (so
    aliases to [t] see the restored state).  The lengths must match. *)

val iter_set : t -> (int -> unit) -> unit
(** Apply to every set index, ascending. *)

val iter_clear : t -> (int -> unit) -> unit
(** Apply to every clear index, ascending — the sweep-side complement of
    {!iter_set} (scanning free slots without a per-bit bounds-checked
    [get]). *)

(** {1 Page windows}

    Used by the page mesher: a size-class region's bitmap is viewed as a
    sequence of per-page windows, and two pages can share one physical
    backing page exactly when their windows are disjoint. *)

val window_disjoint : t -> a:int -> b:int -> len:int -> bool
(** Whether the windows [a, a+len) and [b, b+len) of the same bitmap
    have no common set offset — the meshability test for two pages of
    one region.  O(words) when the windows are byte-aligned (every size
    class with more than 8 slots per page). *)

val window_iter_set : t -> off:int -> len:int -> (int -> unit) -> unit
(** Apply to every set index inside the window, passing the
    window-relative offset, ascending. *)
