(** DieHard's power-of-two size classes (paper §4.1).

    The heap is logically partitioned into twelve regions, one per
    power-of-two size class from 8 bytes to 16 kilobytes.  Requests are
    rounded up to the nearest power of two; the class index of a request of
    [sz] bytes is [ceil(log2 sz) - 3], clamped below at 0.  Powers of two
    let division and modulus be replaced with shifts — we reproduce that
    arithmetic (and test that the shift forms agree with the naive forms). *)

val count : int
(** 12 classes. *)

val max_size : int
(** 16384 bytes (class 11).  Larger requests go to the large-object path. *)

val size : int -> int
(** [size c] is the object size of class [c] ([8 lsl c]).  Requires
    [0 <= c < count]; any other [c] raises
    [Invalid_argument "Size_class.size: bad class"]. *)

val of_size : int -> int option
(** [of_size sz] is the class serving a request of [sz] bytes, or [None]
    when [sz > max_size] (large object) or [sz <= 0]. *)

val of_size_exn : int -> int
(** [of_size_exn sz] is the class of a small request, as {!of_size}
    without the option.  A size outside [\[1, max_size\]] raises
    [Invalid_argument "Size_class.of_size_exn: not a small-object size"]. *)

val is_aligned : offset:int -> class_:int -> bool
(** [is_aligned ~offset ~class_] tells whether a byte offset within a
    partition is a multiple of the class's object size — the validity check
    DieHard's [free] applies (§4.3), computed with masks rather than
    modulus. *)
