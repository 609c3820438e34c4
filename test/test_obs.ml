(* Tests for the Dh_obs telemetry stack: histograms and their CSV
   dump, trace-ring wraparound and Chrome JSON export, the
   fault flight recorder's bounds, the vendored JSON parser, and the
   guarded derived ratios in the stats reporters.

   Every test that enables observability runs under [with_clean], which
   forces the switch on, wipes the rings/reports, and restores
   everything afterwards, so telemetry never leaks between tests (or
   into the determinism suites in test_parallel.ml). *)

module Control = Dh_obs.Control
module Tracing = Dh_obs.Tracing
module Recorder = Dh_obs.Recorder
module Json = Dh_obs.Json
module Quantile = Dh_obs.Quantile

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let wipe () =
  Tracing.reset ();
  Recorder.clear ()

let with_clean f =
  Control.with_enabled true (fun () ->
      wipe ();
      Fun.protect ~finally:wipe f)

(* --- histograms ----------------------------------------------------- *)

(* HDR bucket edges: exact below 64, then 32 buckets per power of two. *)
let test_bucket_edges () =
  List.iter
    (fun (v, b) ->
      check_int (Printf.sprintf "bucket_of %d" v) b (Quantile.bucket_of v))
    [ (0, 0); (1, 1); (63, 63); (64, 64); (65, 64); (66, 65); (127, 95); (128, 96) ];
  check "bucket_count covers every int" true
    (Quantile.bucket_of max_int = Quantile.bucket_count - 1);
  (match Quantile.bucket_of (-1) with
  | exception Invalid_argument _ -> ()
  | b -> Alcotest.failf "bucket_of (-1) returned %d instead of raising" b)

(* A histogram's row in a CSV dump, split into its cells after the name. *)
let csv_row csv name =
  String.split_on_char '\n' csv
  |> List.find_map (fun line ->
         match String.split_on_char ',' line with
         | n :: cells when n = name -> Some cells
         | _ -> None)
  |> function
  | Some cells -> cells
  | None -> Alcotest.failf "no CSV row for %s" name

let test_histogram_observe () =
  let h = Quantile.create () in
  List.iter (Quantile.record h) [ 0; 1; 3; 1024 ];
  check_int "total" 4 (Quantile.count h);
  check_int "sum" 1028 (Quantile.sum h);
  (* max_int lands in the last bucket without overflowing totals *)
  Quantile.record h max_int;
  check_int "total after max_int" 5 (Quantile.count h);
  match Quantile.record h (-5) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative record accepted"

let test_disabled_is_noop () =
  with_clean @@ fun () ->
  Control.with_enabled false (fun () ->
      Tracing.instant "test.noop";
      Tracing.span "test.noop.span" (fun () -> ());
      Recorder.trigger ~reason:"noop" ());
  check_int "no events" 0 (List.length (Tracing.events ()));
  check_int "no reports" 0 (List.length (Recorder.reports ()))

let test_csv_dump () =
  let h = Quantile.create () in
  List.iter (Quantile.record h) [ 1; 2; 3; 4; 100 ];
  let csv = Quantile.to_csv [ ("test.csv.z", h); ("test.csv.a", Quantile.create ()) ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (match lines with
  | header :: _ -> check_str "header" "name,count,p50,p99,max,sum" header
  | [] -> Alcotest.fail "empty csv");
  Alcotest.(check (list string))
    "count, p50, p99, max, sum" [ "5"; "3"; "101"; "101"; "110" ]
    (csv_row csv "test.csv.z");
  let names = List.filter_map (fun l -> List.nth_opt (String.split_on_char ',' l) 0) lines in
  Alcotest.(check (list string)) "rows in the order given" [ "test.csv.z"; "test.csv.a" ]
    (List.tl names);
  check_str "no histograms: the header alone" "name,count,p50,p99,max,sum\n"
    (Quantile.to_csv [])

let test_histogram_quantile () =
  let h = Quantile.create () in
  (* 10 samples of 1 (bucketed exactly), one of 100 (HDR bucket
     [100, 101]). *)
  for _ = 1 to 10 do
    Quantile.record h 1
  done;
  Quantile.record h 100;
  let csv = Quantile.to_csv [ ("test.hq", h); ("test.hq.empty", Quantile.create ()) ] in
  (match csv_row csv "test.hq" with
  | [ _; p50; p99; _; _ ] ->
    check_str "p50 = small bucket bound" "1" p50;
    check_str "p99 lands in the top bucket" "101" p99
  | _ -> Alcotest.fail "row shape");
  Alcotest.(check (list string))
    "empty histogram row" [ "0"; "0"; "0"; "0"; "0" ] (csv_row csv "test.hq.empty")

(* [bucket_of] finds a sample's bit length by halving steps; it must
   agree with the one-bit-per-step loop it replaced, kept here as the
   reference, on every sample below 2^20 and around every power of
   two. *)
let test_bucket_of_matches_bit_loop () =
  let reference v =
    let rec bits n v = if v = 0 then n else bits (n + 1) (v lsr 1) in
    if v < 64 then v
    else
      let shift = bits 0 (v lsr 6) in
      ((shift + 1) * 32) + ((v lsr shift) land 31)
  in
  let agree v =
    if Quantile.bucket_of v <> reference v then
      Alcotest.failf "bucket_of %d = %d, bit loop says %d" v (Quantile.bucket_of v)
        (reference v)
  in
  for v = 0 to 1 lsl 20 do
    agree v
  done;
  for k = 1 to 62 do
    let p = 1 lsl k in
    agree (p - 1);
    if k < 62 then begin
      agree p;
      agree (p + 1)
    end
  done;
  agree max_int

(* Recording a sample allocates nothing: the bucket is arithmetic and
   the counts are updated in place. *)
let test_record_allocates_nothing () =
  let q = Quantile.create () in
  Quantile.record q 1;
  let before = Gc.minor_words () in
  for i = 0 to 99_999 do
    Quantile.record q (i * 37)
  done;
  Alcotest.(check (float 0.)) "minor words for 100,000 records" 0. (Gc.minor_words () -. before)

(* --- tracing -------------------------------------------------------- *)

let test_ring_wrap () =
  with_clean @@ fun () ->
  let extra = 100 in
  for i = 1 to Tracing.ring_capacity + extra do
    Tracing.instant ~arg:(string_of_int i) "test.wrap"
  done;
  check_int "recorded counts overwritten events"
    (Tracing.ring_capacity + extra)
    (Tracing.recorded ());
  check_int "dropped = overflow" extra (Tracing.dropped ());
  let events = Tracing.events () in
  check_int "ring retains capacity" Tracing.ring_capacity (List.length events);
  (* the oldest retained event is the first one that was not overwritten *)
  (match events with
  | first :: _ -> check_str "oldest survivor" (string_of_int (extra + 1)) first.Tracing.arg
  | [] -> Alcotest.fail "no events");
  check_int "last_events bounds" 10 (List.length (Tracing.last_events 10))

(* [last_events n] reads only each ring's newest [n] events; it must
   equal the tail of [events ()], whose order must in turn be the
   (timestamp, domain) order of the polymorphic tuple compare it
   replaced.  Two domains record at once, so stamps interleave and many
   repeat (an event takes well under a microsecond), and both rings
   wrap. *)
let test_last_events_is_tail () =
  with_clean @@ fun () ->
  let burst tag count () =
    for i = 1 to count do
      Tracing.instant ~arg:(string_of_int i) tag
    done
  in
  let helper = Domain.spawn (burst "test.helper" 6_000) in
  burst "test.main" 5_000 ();
  Domain.join helper;
  burst "test.main.after" 50 ();
  let all = Tracing.events () in
  check_int "both rings full" (2 * Tracing.ring_capacity) (List.length all);
  check "events keep the tuple order" true
    (List.stable_sort (fun a b -> compare (a.Tracing.ts, a.Tracing.dom) (b.Tracing.ts, b.Tracing.dom)) all
    = all);
  let rec equal_stamps = function
    | a :: (b :: _ as rest) -> a.Tracing.ts = b.Tracing.ts || equal_stamps rest
    | _ -> false
  in
  check "some stamps repeat" true (equal_stamps all);
  let len = List.length all in
  let tail n = List.filteri (fun i _ -> i >= len - n) all in
  List.iter
    (fun n ->
      check (Printf.sprintf "last_events %d = tail of events" n) true
        (Tracing.last_events n = tail n))
    [ 0; 1; 2; 63; 64; 65; 1000; 4095; 4096; 4097; 6000; 8191; 8192; 8193; 20_000 ]

let test_span_exception_safe () =
  with_clean @@ fun () ->
  (try Tracing.span "test.raise" (fun () -> failwith "boom")
   with Failure _ -> ());
  match List.rev (Tracing.events ()) with
  | last :: prev :: _ ->
    check "end recorded" true (last.Tracing.phase = Tracing.End);
    check "begin recorded" true (prev.Tracing.phase = Tracing.Begin)
  | _ -> Alcotest.fail "span did not record both events"

let test_chrome_json () =
  with_clean @@ fun () ->
  Tracing.span ~arg:"7" "test.span" (fun () -> Tracing.instant "test \"quoted\"");
  let json = Tracing.to_chrome_json () in
  match Json.parse json with
  | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  | Ok v ->
    let events = Option.fold ~none:[] ~some:Json.to_list (Json.member "traceEvents" v) in
    check_int "three events" 3 (List.length events);
    let phases =
      List.filter_map
        (fun e -> Option.bind (Json.member "ph" e) Json.string_value)
        events
    in
    check "phases" true (List.sort compare phases = [ "B"; "E"; "i" ]);
    check "escaped name round-trips" true
      (List.exists
         (fun e ->
           Option.bind (Json.member "name" e) Json.string_value
           = Some "test \"quoted\"")
         events)

(* --- flight recorder ------------------------------------------------ *)

let test_recorder_capture () =
  with_clean @@ fun () ->
  for i = 1 to Recorder.window + 20 do
    Tracing.instant ~arg:(string_of_int i) "test.rec"
  done;
  Recorder.trigger
    ~sections:[ { Recorder.title = "caller"; body = "caller body" } ]
    ~reason:"unit test" ();
  match Recorder.last () with
  | None -> Alcotest.fail "no report captured"
  | Some r ->
    check_str "reason" "unit test" r.Recorder.reason;
    check_int "window bound" Recorder.window (List.length r.Recorder.events);
    check_str "caller section first" "caller"
      (match r.Recorder.sections with
      | s :: _ -> s.Recorder.title
      | [] -> "")

let test_recorder_bounds () =
  with_clean @@ fun () ->
  for i = 1 to Recorder.max_reports + 5 do
    Recorder.trigger ~reason:(Printf.sprintf "capture %d" i) ()
  done;
  let reports = Recorder.reports () in
  check_int "bounded queue" Recorder.max_reports (List.length reports);
  (match reports with
  | oldest :: _ ->
    check_str "oldest retained" "capture 6" oldest.Recorder.reason
  | [] -> Alcotest.fail "no reports");
  let drained = Recorder.take () in
  check_int "take drains everything" Recorder.max_reports (List.length drained);
  check_int "queue empty after take" 0 (List.length (Recorder.reports ()))

(* --- JSON parser ---------------------------------------------------- *)

let test_json_parser () =
  let ok s = match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "%S: %s" s e in
  (match ok {|{"a": [1, 2.5, -3e2], "b": "x\u0041\n", "c": true, "d": null}|} with
  | Json.Obj fields ->
    check_int "fields" 4 (List.length fields);
    (match List.assoc "a" fields with
    | Json.List [ Json.Number a; Json.Number b; Json.Number c ] ->
      check "numbers" true (a = 1. && b = 2.5 && c = -300.)
    | _ -> Alcotest.fail "list shape");
    check "unicode + escape" true
      (List.assoc "b" fields = Json.String "xA\n");
    check "bool" true (List.assoc "c" fields = Json.Bool true);
    check "null" true (List.assoc "d" fields = Json.Null)
  | _ -> Alcotest.fail "object shape");
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "%S parsed but should not" s
      | Error _ -> ())
    [ "{} trailing"; "{\"a\":}"; "\"unterminated"; "[1,]"; "nul"; "" ];
  check "member on non-obj" true (Json.member "a" (Json.List []) = None);
  check "to_list on non-list" true (Json.to_list Json.Null = [])

(* --- guarded derived ratios in the reporters ------------------------ *)

let test_stats_pp_guards () =
  let fresh = Dh_alloc.Stats.create () in
  let s = Format.asprintf "%a" Dh_alloc.Stats.pp fresh in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check "empty run prints a dash, not nan" true (contains ~sub:"probes/malloc=-" s);
  fresh.Dh_alloc.Stats.mallocs <- 2;
  fresh.Dh_alloc.Stats.probes <- 4;
  let s = Format.asprintf "%a" Dh_alloc.Stats.pp fresh in
  check "ratio printed when defined" true (contains ~sub:"probes/malloc=2.00" s)

let test_with_enabled_restores () =
  let before = Control.enabled () in
  (try
     Control.with_enabled (not before) (fun () ->
         check "forced" (not before) (Control.enabled ());
         failwith "boom")
   with Failure _ -> ());
  check "restored after raise" before (Control.enabled ())

let suite =
  [
    Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
    Alcotest.test_case "bucket_of = bit loop" `Quick test_bucket_of_matches_bit_loop;
    Alcotest.test_case "record allocates nothing" `Quick test_record_allocates_nothing;
    Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
    Alcotest.test_case "disabled recording is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "metrics csv dump" `Quick test_csv_dump;
    Alcotest.test_case "metrics histogram quantile" `Quick test_histogram_quantile;
    Alcotest.test_case "trace ring wraps" `Quick test_ring_wrap;
    Alcotest.test_case "last_events = tail of events" `Quick test_last_events_is_tail;
    Alcotest.test_case "span is exception-safe" `Quick test_span_exception_safe;
    Alcotest.test_case "chrome trace json" `Quick test_chrome_json;
    Alcotest.test_case "flight recorder capture" `Quick test_recorder_capture;
    Alcotest.test_case "flight recorder bounds" `Quick test_recorder_bounds;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "reporter ratio guards" `Quick test_stats_pp_guards;
    Alcotest.test_case "with_enabled restores" `Quick test_with_enabled_restores;
  ]
