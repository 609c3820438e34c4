(* Tests for the Dh_obs telemetry stack: metrics registry bucketing and
   shard merging, trace-ring wraparound and Chrome JSON export, the
   fault flight recorder's bounds, the vendored JSON parser, and the
   guarded derived ratios in the stats reporters.

   Every test that enables observability runs under [with_clean], which
   forces the switch on, wipes the process-wide registry/rings/reports,
   and restores everything afterwards, so telemetry never leaks between
   tests (or into the determinism suites in test_parallel.ml). *)

module Control = Dh_obs.Control
module Metrics = Dh_obs.Metrics
module Tracing = Dh_obs.Tracing
module Recorder = Dh_obs.Recorder
module Json = Dh_obs.Json
module Quantile = Dh_obs.Quantile

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let wipe () =
  Metrics.reset ();
  Tracing.reset ();
  Recorder.clear ()

let with_clean f =
  Control.with_enabled true (fun () ->
      wipe ();
      Fun.protect ~finally:wipe f)

(* --- histogram bucketing ------------------------------------------- *)

let test_bucket_edges () =
  List.iter
    (fun (v, b) ->
      check_int (Printf.sprintf "bucket_of %d" v) b (Metrics.bucket_of v))
    [
      (0, 0);
      (1, 1);
      (2, 2);
      (3, 2);
      (4, 3);
      (7, 3);
      (8, 4);
      (1023, 10);
      (1024, 11);
      (max_int, 62);
    ];
  check "bucket_count covers every int" true
    (Metrics.bucket_of max_int < Metrics.bucket_count);
  (match Metrics.bucket_of (-1) with
  | exception Invalid_argument _ -> ()
  | b -> Alcotest.failf "bucket_of (-1) returned %d instead of raising" b)

(* A histogram's row in the metrics dump: its sample count, and the
   log2 view the CSV prints after "buckets=" in its detail. *)
let dump_row name =
  List.find (fun (r : Metrics.row) -> r.Metrics.name = name) (Metrics.dump ())

let log2_view name =
  let fields = String.split_on_char ' ' (dump_row name).Metrics.detail in
  let field = List.find (String.starts_with ~prefix:"buckets=") fields in
  String.sub field 8 (String.length field - 8)

let test_histogram_observe () =
  with_clean @@ fun () ->
  let h = Metrics.histogram "test.hist" in
  List.iter (Metrics.observe h) [ 0; 1; 3; 1024 ];
  check_int "total" 4 (dump_row "test.hist").Metrics.value;
  check_int "sum" 1028 (Quantile.sum (Quantile.snapshot h));
  Alcotest.(check string) "buckets 0, 1, 2 and 11" "b0:1;b1:1;b2:1;b11:1" (log2_view "test.hist");
  (* max_int lands in the last used bucket without overflowing totals *)
  Metrics.observe h max_int;
  Alcotest.(check string) "max_int bucket" "b0:1;b1:1;b2:1;b11:1;b62:1" (log2_view "test.hist");
  check_int "total after max_int" 5 (dump_row "test.hist").Metrics.value;
  match Metrics.observe h (-5) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative observe accepted"

let test_disabled_is_noop () =
  with_clean @@ fun () ->
  let h = Metrics.histogram "test.noop.hist" in
  Control.with_enabled false (fun () ->
      Metrics.observe h 42;
      (* the sign check only runs while enabled: no raise here *)
      Metrics.observe h (-1);
      Tracing.instant "test.noop";
      Tracing.span "test.noop.span" (fun () -> ());
      Recorder.trigger ~reason:"noop" ());
  check_int "histogram untouched" 0 (Quantile.count (Quantile.snapshot h));
  check_int "no events" 0 (List.length (Tracing.events ()));
  check_int "no reports" 0 (List.length (Recorder.reports ()))

let test_gauges () =
  with_clean @@ fun () ->
  (* newest registration wins, raising callback reads 0 *)
  Metrics.gauge_fn "test.gauge_fn" (fun () -> 1);
  Metrics.gauge_fn "test.gauge_fn" (fun () -> 2);
  Metrics.gauge_fn "test.gauge_fn.raising" (fun () ->
      failwith "boom");
  let rows = Metrics.dump () in
  let value name =
    match List.find_opt (fun r -> r.Metrics.name = name) rows with
    | Some r -> r.Metrics.value
    | None -> Alcotest.failf "row %s missing from dump" name
  in
  check_int "callback replaced" 2 (value "test.gauge_fn");
  check_int "raising callback reads 0" 0 (value "test.gauge_fn.raising")

let test_kind_mismatch () =
  with_clean @@ fun () ->
  Metrics.gauge_fn "test.kind" (fun () -> 0);
  match Metrics.histogram "test.kind" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted"

let test_csv_dump () =
  with_clean @@ fun () ->
  Metrics.gauge_fn "test.csv.gauge" (fun () -> 3);
  let h = Metrics.histogram "test.csv.histogram" in
  List.iter (Metrics.observe h) [ 1; 2; 3; 4; 100 ];
  let csv = Metrics.to_csv () in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (match lines with
  | header :: _ -> check_str "header" "name,kind,value,p50,p99,detail" header
  | [] -> Alcotest.fail "empty csv");
  check "gauge row present" true
    (List.exists (String.starts_with ~prefix:"test.csv.gauge,gauge,3,") lines);
  (* Gauges leave the quantile cells empty; histograms fill both. *)
  List.iter
    (fun l ->
      match String.split_on_char ',' l with
      | [ "test.csv.gauge"; _; _; p50; p99; _ ] ->
        check_str "gauge p50 empty" "" p50;
        check_str "gauge p99 empty" "" p99
      | [ "test.csv.histogram"; _; _; p50; p99; _ ] ->
        check "histogram p50 integer" true (int_of_string_opt p50 <> None);
        check "histogram p99 integer" true (int_of_string_opt p99 <> None)
      | _ -> ())
    lines

let test_histogram_quantile () =
  with_clean @@ fun () ->
  let h = Metrics.histogram "test.hq" in
  (* 10 samples of 1 (bucketed exactly), one of 100 (HDR bucket
     [100, 101]). *)
  for _ = 1 to 10 do
    Metrics.observe h 1
  done;
  Metrics.observe h 100;
  let row = dump_row "test.hq" in
  check "p50 = small bucket bound" true (row.Metrics.p50 = Some 1);
  check "p99 lands in the top bucket" true (row.Metrics.p99 = Some 101);
  ignore (Metrics.histogram "test.hq.empty");
  check "empty histogram quantile 0" true ((dump_row "test.hq.empty").Metrics.p50 = Some 0)

(* The CSV's log2 detail is a view of the HDR buckets: it must equal a
   power-of-two bucketing of the raw samples, done here by hand. *)
let prop_log2_view =
  QCheck.Test.make ~name:"metrics: log2 view equals a reference bucketing"
    ~count:200
    QCheck.(
      list_of_size Gen.(int_range 0 100)
        (make Gen.(oneof [ int_bound 200; int_bound 1_000_000; map abs int ])))
    (fun samples ->
      let samples = [ 0; 63; 64; 65; max_int ] @ samples in
      let reference = Array.make 64 0 in
      List.iter
        (fun v ->
          let rec bits b = if v lsr b = 0 then b else bits (b + 1) in
          let b = bits 0 in
          reference.(b) <- reference.(b) + 1)
        samples;
      let view =
        List.filter_map
          (fun b ->
            if reference.(b) > 0 then Some (Printf.sprintf "b%d:%d" b reference.(b)) else None)
          (List.init 64 Fun.id)
      in
      with_clean @@ fun () ->
      let h = Metrics.histogram "test.log2.view" in
      List.iter (Metrics.observe h) samples;
      log2_view "test.log2.view" = String.concat ";" view
      && (dump_row "test.log2.view").Metrics.value = List.length samples
      && Quantile.sum (Quantile.snapshot h) = List.fold_left ( + ) 0 samples)

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
  Metrics.gauge_fn "test.rec.gauge" (fun () -> 1);
  Recorder.trigger
    ~sections:[ { Recorder.title = "caller"; body = "caller body" } ]
    ~reason:"unit test" ();
  match Recorder.last () with
  | None -> Alcotest.fail "no report captured"
  | Some r ->
    check_str "reason" "unit test" r.Recorder.reason;
    check_int "window bound" Recorder.window (List.length r.Recorder.events);
    check "metrics snapshot" true
      (List.exists
         (fun row -> row.Metrics.name = "test.rec.gauge")
         r.Recorder.metrics);
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
    Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
    Alcotest.test_case "disabled recording is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "gauges and callbacks" `Quick test_gauges;
    Alcotest.test_case "instrument kind mismatch" `Quick test_kind_mismatch;
    Alcotest.test_case "metrics csv dump" `Quick test_csv_dump;
    Alcotest.test_case "metrics histogram quantile" `Quick test_histogram_quantile;
    QCheck_alcotest.to_alcotest prop_log2_view;
    Alcotest.test_case "trace ring wraps" `Quick test_ring_wrap;
    Alcotest.test_case "span is exception-safe" `Quick test_span_exception_safe;
    Alcotest.test_case "chrome trace json" `Quick test_chrome_json;
    Alcotest.test_case "flight recorder capture" `Quick test_recorder_capture;
    Alcotest.test_case "flight recorder bounds" `Quick test_recorder_bounds;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "reporter ratio guards" `Quick test_stats_pp_guards;
    Alcotest.test_case "with_enabled restores" `Quick test_with_enabled_restores;
  ]
