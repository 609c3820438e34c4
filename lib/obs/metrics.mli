(** The process-wide metrics registry: named gauges and histograms.

    Histograms record into per-domain {!Cell}s: the first time a domain
    records into a histogram it is handed a private cell, and every
    later record is a plain in-place add — no mutex, no atomic, no cache
    line shared with any other domain.  Cells are merged only when a
    value is read ([Quantile.snapshot], {!dump}), and reads are exact
    once writers have been joined (a fan-out joins its helpers before
    it returns, so post-fan-out dumps are exact).  All recording
    is a no-op while {!Control.enabled} is false.

    Histogram {e lookup} by name ({!histogram}) takes the registry mutex
    — resolve histograms once, outside hot loops, and keep the handle.

    Histograms are get-or-create by name: creating ["serve.latency_ns"]
    twice returns the same histogram, so short-lived components (one
    serve loop per supervisor attempt) accumulate into one series.
    Gauges are the exception: re-registering a name replaces the
    callback, so a gauge tracks the most recently created component. *)

(** {1 Gauges} *)

val gauge_fn : string -> (unit -> int) -> unit
(** Register (or replace) a gauge: a callback read at dump time.  A
    callback that raises reads as 0. *)

(** {1 Histograms}

    A histogram is a {!Quantile.t}: HDR buckets with a 3.125% relative
    error bound.  The power-of-two summary the CSV prints is a view
    derived from those buckets, exact because each HDR bucket lies
    inside one power-of-two range. *)

type histogram = Quantile.t

val histogram : string -> histogram
(** Get or create.  Raises [Invalid_argument] if the name is registered
    as a gauge. *)

val observe : histogram -> int -> unit
(** {!Quantile.record}.  Raises [Invalid_argument] on negative samples
    (the sign check only runs while enabled).  Single-writer hot loops
    record through their own {!Quantile.share} handle. *)

val bucket_of : int -> int
(** [bucket_of v] for [v >= 0] is the log2 bucket index: 0 for 0, and
    [floor (log2 v) + 1] otherwise (1 -> 1, 2..3 -> 2, 4..7 -> 3, ...,
    [max_int] -> 62).  Raises [Invalid_argument] on negative values. *)

val bucket_count : int  (** 64: every non-negative OCaml int fits. *)

(** {1 Reading} *)

type row = {
  name : string;
  kind : string;  (** ["gauge"] or ["histogram"]. *)
  value : int;  (** Gauge value, or histogram sample count. *)
  p50 : int option;
      (** Histograms: {!Quantile.quantile} of a fresh snapshot at 0.5. *)
  p99 : int option;  (** Histograms: likewise at 0.99. *)
  detail : string;
      (** Histograms: ["sum=S mean=M buckets=b1:n1;b4:n4"], the buckets
          being the log2 view; empty otherwise. *)
}

val dump : unit -> row list
(** Snapshot of every instrument, sorted by name. *)

val to_csv : unit -> string
(** The dump as CSV with a ["name,kind,value,p50,p99,detail"] header
    (quantile cells are empty for gauges) — the
    machine-readable twin of the bench report tables. *)

val write_csv : path:string -> unit

val reset : unit -> unit
(** Forget every instrument name (tests).  Handles already held keep
    recording, but {!dump} no longer lists them. *)
