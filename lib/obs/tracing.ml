type phase = Begin | End | Instant

type event = { ts : int; dom : int; phase : phase; name : string; arg : string }

(* A power of two, so a slot index is a mask of the event count. *)
let ring_capacity = 4096

(* One clock: the platform's monotonic clock, in nanoseconds for
   latency samples (gettimeofday's microseconds would quantize a 2-3 us
   request) and in microseconds since this module was initialised for
   trace stamps.  It never steps backwards. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let elapsed_ns ~since ~now = if now > since then now - since else 0
let epoch_ns = now_ns ()
let now_us () = (now_ns () - epoch_ns) / 1000

let no_arg = min_int

(* Event [i] lives in slot [i mod ring_capacity] of four arrays, one per
   field, so recording stores four words and allocates nothing: [phases]
   holds immediates, and [args] ints.  A slot is never read before its
   first write, since only the newest [min n ring_capacity] slots are. *)
type ring = {
  dom : int;
  stamps : int array;  (* microseconds, as [event.ts] *)
  phases : phase array;
  names : string array;
  args : int array;  (* [no_arg] for none *)
  mutable n : int;  (* total events ever written to this ring *)
}

let ring () =
  {
    dom = (Domain.self () :> int);
    stamps = Array.make ring_capacity 0;
    phases = Array.make ring_capacity Instant;
    names = Array.make ring_capacity "";
    args = Array.make ring_capacity no_arg;
    n = 0;
  }

let record r phase name arg =
  let i = r.n land (ring_capacity - 1) in
  r.stamps.(i) <- now_us ();
  r.phases.(i) <- phase;
  r.names.(i) <- name;
  r.args.(i) <- arg;
  r.n <- r.n + 1

let event r i =
  let i = i land (ring_capacity - 1) in
  let arg = r.args.(i) in
  {
    ts = r.stamps.(i);
    dom = r.dom;
    phase = r.phases.(i);
    name = r.names.(i);
    arg = (if arg = no_arg then "" else string_of_int arg);
  }

let tail r k =
  let n = r.n in
  let stop = n - max 0 (min k (min n ring_capacity)) in
  let rec go i acc = if i < stop then acc else go (i - 1) (event r i :: acc) in
  go (n - 1) []

(* Merge order: timestamp, then domain.  A ring's own events are already
   in this order by index (one writer, a monotonic clock), and the sort
   is stable, so equal stamps keep the order they were handed in. *)
let by_time a b = if a.ts <> b.ts then Int.compare a.ts b.ts else Int.compare a.dom b.dom

let merge streams = List.stable_sort by_time (List.concat streams)

(* --- export --- *)

let phase_letter = function Begin -> "B" | End -> "E" | Instant -> "i"

let to_chrome_json events =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"name\":\"%s\",\"cat\":\"diehard\",\"ph\":\"%s\",\"ts\":%d,\"pid\":1,\"tid\":%d"
        (Json.escape e.name) (phase_letter e.phase) e.ts e.dom;
      (match e.phase with
      | Instant -> Buffer.add_string b ",\"s\":\"t\""
      | Begin | End -> ());
      if e.arg <> "" then Printf.bprintf b ",\"args\":{\"arg\":\"%s\"}" (Json.escape e.arg);
      Buffer.add_char b '}')
    events;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let write_chrome_json ~path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json events))

let pp_event ppf e =
  Format.fprintf ppf "%10d us  d%-3d %-2s %s%s" e.ts e.dom (phase_letter e.phase) e.name
    (if e.arg = "" then "" else " [" ^ e.arg ^ "]")
