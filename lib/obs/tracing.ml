type phase = Begin | End | Instant

type event = { ts : int; dom : int; phase : phase; name : string; arg : string }

let ring_capacity = 4096

(* Timestamps are microseconds since the module was initialised;
   gettimeofday is not strictly monotonic but is in practice on the
   machines this simulator runs on, and the sort on read tolerates the
   odd equal stamp. *)
let epoch = Unix.gettimeofday ()
let now_us () = int_of_float ((Unix.gettimeofday () -. epoch) *. 1e6)
let now_ns () = int_of_float ((Unix.gettimeofday () -. epoch) *. 1e9)

type ring = {
  dom : int;
  events : event option array;
  mutable n : int;  (* total events ever written to this ring *)
}

(* One ring per domain, registered when the domain records its first
   event and never removed (a dead domain's ring keeps its tail of
   events, which the flight recorder may still want). *)
let rings =
  Cell.create (fun () ->
      { dom = (Domain.self () :> int); events = Array.make ring_capacity None; n = 0 })

let record phase name arg =
  let r = Cell.get rings in
  r.events.(r.n mod ring_capacity) <-
    Some { ts = now_us (); dom = r.dom; phase; name; arg };
  r.n <- r.n + 1

let begin_ ?(arg = "") name = if Control.enabled () then record Begin name arg
let end_ name = if Control.enabled () then record End name ""
let instant ?(arg = "") name = if Control.enabled () then record Instant name arg

let span ?arg name f =
  if not (Control.enabled ()) then f ()
  else begin
    record Begin name (Option.value arg ~default:"");
    Fun.protect ~finally:(fun () -> record End name "") f
  end

let ring_events r =
  let n = r.n in
  let kept = min n ring_capacity in
  let first = n - kept in
  List.filter_map
    (fun i -> r.events.(i mod ring_capacity))
    (List.init kept (fun k -> first + k))

let events () =
  List.sort
    (fun a b -> compare (a.ts, a.dom) (b.ts, b.dom))
    (Cell.fold (fun acc r -> ring_events r @ acc) [] rings)

let last_events n =
  let all = events () in
  let len = List.length all in
  if len <= n then all else List.filteri (fun i _ -> i >= len - n) all

let recorded () = Cell.fold (fun acc r -> acc + r.n) 0 rings

let dropped () = Cell.fold (fun acc r -> acc + max 0 (r.n - ring_capacity)) 0 rings

let reset () =
  Cell.fold
    (fun () r ->
      Array.fill r.events 0 ring_capacity None;
      r.n <- 0)
    () rings

(* --- export --- *)

let phase_letter = function Begin -> "B" | End -> "E" | Instant -> "i"

let to_chrome_json () =
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
    (events ());
  Buffer.add_string b "]}\n";
  Buffer.contents b

let write_chrome_json ~path () =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ()))

let pp_event ppf e =
  Format.fprintf ppf "%10d us  d%-3d %-2s %s%s" e.ts e.dom
    (match e.phase with Begin -> "B" | End -> "E" | Instant -> "i")
    e.name
    (if e.arg = "" then "" else " [" ^ e.arg ^ "]")

let to_text () =
  let b = Buffer.create 1024 in
  List.iter (fun e -> Buffer.add_string b (Format.asprintf "%a@." pp_event e)) (events ());
  Buffer.contents b
