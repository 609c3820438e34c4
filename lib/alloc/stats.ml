type t = {
  mutable mallocs : int;
  mutable failed_mallocs : int;
  mutable frees : int;
  mutable ignored_frees : int;
  mutable probes : int;
  mutable bytes_requested : int;
  mutable bytes_allocated : int;
  mutable live_objects : int;
  mutable live_bytes : int;
  mutable peak_live_bytes : int;
  mutable gc_collections : int;
}

let create () =
  {
    mallocs = 0;
    failed_mallocs = 0;
    frees = 0;
    ignored_frees = 0;
    probes = 0;
    bytes_requested = 0;
    bytes_allocated = 0;
    live_objects = 0;
    live_bytes = 0;
    peak_live_bytes = 0;
    gc_collections = 0;
  }

let copy t = { t with mallocs = t.mallocs }

let assign t ~from =
  t.mallocs <- from.mallocs;
  t.failed_mallocs <- from.failed_mallocs;
  t.frees <- from.frees;
  t.ignored_frees <- from.ignored_frees;
  t.probes <- from.probes;
  t.bytes_requested <- from.bytes_requested;
  t.bytes_allocated <- from.bytes_allocated;
  t.live_objects <- from.live_objects;
  t.live_bytes <- from.live_bytes;
  t.peak_live_bytes <- from.peak_live_bytes;
  t.gc_collections <- from.gc_collections

(* Both inline into DieHard's malloc and free. *)
let[@inline] on_malloc t ~requested ~reserved =
  t.mallocs <- t.mallocs + 1;
  t.bytes_requested <- t.bytes_requested + requested;
  t.bytes_allocated <- t.bytes_allocated + reserved;
  t.live_objects <- t.live_objects + 1;
  t.live_bytes <- t.live_bytes + reserved;
  if t.live_bytes > t.peak_live_bytes then t.peak_live_bytes <- t.live_bytes

let[@inline] on_free t ~reserved =
  t.frees <- t.frees + 1;
  t.live_objects <- t.live_objects - 1;
  t.live_bytes <- t.live_bytes - reserved

let pp ppf t =
  (* Ratios print as "-" on empty runs rather than dividing by zero. *)
  let ratio num den =
    if den = 0 then "-" else Printf.sprintf "%.2f" (float_of_int num /. float_of_int den)
  in
  Format.fprintf ppf
    "mallocs=%d failed=%d frees=%d ignored_frees=%d probes=%d probes/malloc=%s live=%d/%dB peak=%dB gcs=%d"
    t.mallocs t.failed_mallocs t.frees t.ignored_frees t.probes
    (ratio t.probes t.mallocs) t.live_objects t.live_bytes t.peak_live_bytes
    t.gc_collections
