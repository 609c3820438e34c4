(* Tests for the Dh_obs telemetry stack: histograms and their CSV
   dump, trace-ring wraparound and Chrome JSON export, the
   fault flight recorder's bounds, the vendored JSON parser, and the
   guarded derived ratios in the stats reporters.

   Every recorder is a test's own value, on or off from creation, so
   telemetry never leaks between tests (or into the determinism suites
   in test_parallel.ml). *)

module Tracing = Dh_obs.Tracing
module Recorder = Dh_obs.Recorder
module Json = Dh_obs.Json
module Quantile = Dh_obs.Quantile

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- histograms ----------------------------------------------------- *)

(* HDR bucket edges: exact below 64, then 32 buckets per power of two. *)
let test_bucket_edges () =
  List.iter
    (fun (v, b) ->
      check_int (Printf.sprintf "bucket_of %d" v) b (Quantile.bucket_of v))
    [ (0, 0); (1, 1); (63, 63); (64, 64); (65, 64); (66, 65); (127, 95); (128, 96) ];
  check "bucket_count covers every int" true
    (Quantile.bucket_of max_int = Array.length (Quantile.counts (Quantile.create ())) - 1);
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
  check_str "sum" "1028" (List.nth (csv_row (Quantile.to_csv [ ("h", h) ]) "h") 4);
  (* max_int lands in the last bucket without overflowing totals *)
  Quantile.record h max_int;
  check_int "total after max_int" 5 (Quantile.count h);
  match Quantile.record h (-5) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative record accepted"

let test_disabled_is_noop () =
  let recorder = Recorder.create ~on:false in
  check "off" false (Recorder.on recorder);
  Recorder.instant recorder "test.noop";
  check_int "the span runs its thunk" 7 (Recorder.span recorder "test.noop.span" (fun () -> 7));
  Recorder.trigger ~reason:"noop" recorder;
  check_int "no events" 0 (List.length (Recorder.events recorder));
  check_int "no reports" 0 (List.length (Recorder.reports recorder))

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
  let recorder = Recorder.create ~on:true in
  let extra = 100 in
  for i = 1 to Tracing.ring_capacity + extra do
    Recorder.instant ~arg:(string_of_int i) recorder "test.wrap"
  done;
  let events = Recorder.events recorder in
  check_int "ring retains capacity" Tracing.ring_capacity (List.length events);
  (* the oldest retained event is the first one that was not overwritten *)
  (match events with
  | first :: _ -> check_str "oldest survivor" (string_of_int (extra + 1)) first.Tracing.arg
  | [] -> Alcotest.fail "no events");
  check "newest last" true
    ((List.nth events (Tracing.ring_capacity - 1)).Tracing.arg
    = string_of_int (Tracing.ring_capacity + extra))

(* A flight capture's window is its own space's: two spaces record at
   once on two domains (both rings wrap, and stamps interleave), then
   each captures into its own recorder, and neither capture holds an
   event of the other domain.  A space's events are the tail of its own
   events in the merged export, and the export keeps the
   (timestamp, domain) order. *)
let test_capture_is_own_domain () =
  let burst recorder tag count =
    for i = 1 to count do
      Recorder.instant ~arg:(string_of_int i) recorder tag
    done
  in
  let capture recorder tag =
    Recorder.trigger ~reason:tag recorder;
    ((Domain.self () :> int), Option.get (Recorder.last recorder))
  in
  let helper =
    Domain.spawn (fun () ->
        let recorder = Recorder.create ~on:true in
        burst recorder "test.helper" 6_000;
        (recorder, capture recorder "test.helper"))
  in
  let main = Recorder.create ~on:true in
  burst main "test.main" 5_000;
  let helper_recorder, (helper_dom, helper_capture) = Domain.join helper in
  burst main "test.main.after" 50;
  let main_dom, main_capture = capture main "test.main" in
  List.iter
    (fun (dom, (r : Recorder.report)) ->
      check_int (r.Recorder.reason ^ ": a full window") Recorder.window
        (List.length r.Recorder.events);
      check (r.Recorder.reason ^ ": only its own domain's events") true
        (List.for_all
           (fun e ->
             e.Tracing.dom = dom && String.starts_with ~prefix:r.Recorder.reason e.Tracing.name)
           r.Recorder.events))
    [ (helper_dom, helper_capture); (main_dom, main_capture) ];
  check "the main window is its newest events" true
    (main_capture.Recorder.events
    = List.filteri
        (fun i _ -> i >= Tracing.ring_capacity - Recorder.window)
        (Recorder.events main));
  let all = Tracing.merge [ Recorder.events helper_recorder; Recorder.events main ] in
  check_int "both rings full" (2 * Tracing.ring_capacity) (List.length all);
  check "events keep the tuple order" true
    (List.stable_sort (fun a b -> compare (a.Tracing.ts, a.Tracing.dom) (b.Tracing.ts, b.Tracing.dom)) all
    = all);
  check "a space's events are its stream of the export" true
    (List.filter (fun e -> e.Tracing.dom = main_dom) all = Recorder.events main)

let test_span_exception_safe () =
  let recorder = Recorder.create ~on:true in
  (try Recorder.span recorder "test.raise" (fun () -> failwith "boom")
   with Failure _ -> ());
  match List.rev (Recorder.events recorder) with
  | last :: prev :: _ ->
    check "end recorded" true (last.Tracing.phase = Tracing.End);
    check "begin recorded" true (prev.Tracing.phase = Tracing.Begin)
  | _ -> Alcotest.fail "span did not record both events"

let test_chrome_json () =
  let recorder = Recorder.create ~on:true in
  Recorder.span ~arg:"7" recorder "test.span" (fun () ->
      Recorder.instant recorder "test \"quoted\"");
  let path = Filename.temp_file "diehard_trace" ".json" in
  Tracing.write_chrome_json ~path (Recorder.events recorder);
  let json = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  match Json.parse json with
  | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  | Ok v ->
    let events =
      match Json.member "traceEvents" v with Some (Json.List l) -> l | _ -> []
    in
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
  let recorder = Recorder.create ~on:true in
  for i = 1 to Recorder.window + 20 do
    Recorder.instant ~arg:(string_of_int i) recorder "test.rec"
  done;
  Recorder.trigger
    ~sections:[ { Recorder.title = "caller"; body = "caller body" } ]
    ~reason:"unit test" recorder;
  match Recorder.last recorder with
  | None -> Alcotest.fail "no report captured"
  | Some r ->
    check_str "reason" "unit test" r.Recorder.reason;
    check_int "window bound" Recorder.window (List.length r.Recorder.events);
    check_str "caller section first" "caller"
      (match r.Recorder.sections with
      | s :: _ -> s.Recorder.title
      | [] -> "")

(* A recorder keeps its newest [max_reports] reports, oldest first, and
   a second recorder sees none of them. *)
let test_recorder_bounds () =
  let recorder = Recorder.create ~on:true and other = Recorder.create ~on:true in
  for i = 1 to Recorder.max_reports + 5 do
    Recorder.trigger ~reason:(Printf.sprintf "capture %d" i) recorder
  done;
  let reports = Recorder.reports recorder in
  check_int "bounded" Recorder.max_reports (List.length reports);
  Alcotest.(check (list string))
    "the newest, oldest first"
    (List.init Recorder.max_reports (fun i -> Printf.sprintf "capture %d" (i + 6)))
    (List.map (fun r -> r.Recorder.reason) reports);
  check "last is the newest" true
    (Recorder.last recorder = Some (List.nth reports (Recorder.max_reports - 1)));
  check_int "another recorder is empty" 0 (List.length (Recorder.reports other));
  check "another recorder has no last" true (Recorder.last other = None)

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
  check "member on non-obj" true (Json.member "a" (Json.List []) = None)

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
    Alcotest.test_case "a capture holds only its own domain's events" `Quick
      test_capture_is_own_domain;
    Alcotest.test_case "span is exception-safe" `Quick test_span_exception_safe;
    Alcotest.test_case "chrome trace json" `Quick test_chrome_json;
    Alcotest.test_case "flight recorder capture" `Quick test_recorder_capture;
    Alcotest.test_case "flight recorder bounds" `Quick test_recorder_bounds;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "reporter ratio guards" `Quick test_stats_pp_guards;
  ]
