(** Sliding-window counters over a deterministic integer clock.

    A window is a ring of [buckets] counting buckets, each [width] clock
    ticks wide; {!add} stamps events into the bucket their timestamp
    falls in and {!total}/{!rate} sum the buckets the trailing window
    covers.  The clock is whatever monotone integer the caller owns —
    a request index, say, so windowed rates are deterministic functions
    of the run, not of wall-clock scheduling.  Nothing in the library
    writes a window; the repo benchmark calls {!reset}.

    Rotation is stamp-based, not eviction-based: every slot remembers
    the absolute bucket number it counts for, and a slot whose stamp has
    fallen out of the trailing window simply stops being summed (and is
    reclaimed by the next write that lands on it).  A clock jump of any
    size — simulated time leaping whole windows forwards — therefore
    needs no catch-up loop: stale slots age out by comparison.  Writes
    timestamped before the trailing window's start are dropped.

    Windows are single-writer (the owning loop); {!total} from another
    domain reads plain ints and may lag the writer's current bucket.
    {!add} is a no-op while {!Control.enabled} is false. *)

type t

val create : width:int -> buckets:int -> t
(** [width] ticks per bucket, [buckets] buckets per window; both must be
    positive (raises [Invalid_argument] otherwise). *)

val get : string -> width:int -> buckets:int -> t
(** Get or create by name in the process-wide registry.  Raises
    [Invalid_argument] if the name exists with different geometry. *)

val find : string -> t option
(** Registry lookup without creating — for read-side consumers (the
    bench report, the CLI) that must not dictate geometry. *)

val reset : unit -> unit
(** Drop every registered window (tests). *)

val span : t -> int
(** [width * buckets] — the clock ticks one full window covers. *)

val add : t -> now:int -> int -> unit
(** Count [n] events at clock [now] (>= 0, else [Invalid_argument] —
    checked only while enabled).  Events older than the trailing window
    ending at the newest bucket ever written are dropped. *)

val total : t -> now:int -> int
(** Events counted in the window [(now - span, now]] — precisely, in the
    [buckets] whole buckets ending at [now]'s bucket. *)

val rate : t -> now:int -> float
(** [total / span]: events per clock tick over the trailing window.
    Early in a run (before one full window has elapsed) the denominator
    is the ticks actually elapsed, so rates are not diluted by empty
    leading buckets. *)
