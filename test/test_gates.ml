(* The bench gates' failure modes, without running a bench: each gate's
   check list is fed a synthetic report carrying one regression, and
   must name exactly the checks that regression breaks.  Also the one
   report reader/writer: a round trip, a missing file, and files that
   exist but are not reports. *)

module Gate = Dh_bench.Gate
module Json = Dh_obs.Json

let check_names = Alcotest.(check (list string))

(* A synthetic report: [base] metrics (all filed as exact; lookups read
   both sections) with [set] overriding some of them. *)
let report ~bench ?(cores = 2) ~config base set =
  {
    Gate.bench;
    cores;
    config;
    exact = List.map (fun (k, v) -> (k, Option.value (List.assoc_opt k set) ~default:v)) base;
    wall = [];
  }

let failed ?baseline checks r = Gate.evaluate ~baseline:(Ok baseline) checks r
let num x = Json.Number x
let yes = Json.Bool true
let no = Json.Bool false

(* --- throughput --- *)

let throughput_metrics =
  [
    ("replicated-8way.jobs2.speedup", num 1.8);
    ("campaign.jobs2.speedup", num 1.5);
    ("obs.enabled_overhead_pct", num 29.);
    ("recover.rewind_speedup", num 1.4);
    ("diehard.ops_per_sec", num 9e6);
    ("freelist-lea.ops_per_sec", num 7e6);
    ("gc-bdw.ops_per_sec", num 2e6);
    ("diehard-obs-off.ops_per_sec", num 1e7);
    ("ckpt-write-plain.ops_per_sec", num 6e7);
  ]

let throughput ?cores ?(quick = false) set =
  report ~bench:"throughput" ?cores
    ~config:[ ("quick", Json.Bool quick); ("traced", no) ]
    throughput_metrics set

let throughput_failed ?baseline ?cores set =
  failed ?baseline Dh_bench.Throughput.checks (throughput ?cores set)

let test_throughput_healthy () =
  check_names "healthy report passes against itself" []
    (throughput_failed ~baseline:(throughput []) [])

(* A run whose rewind is no faster than a restart must fail the one
   throughput gate. *)
let test_throughput_rewind () =
  check_names "rewind speedup 1.0" [ "recover.rewind_speedup" ]
    (throughput_failed [ ("recover.rewind_speedup", num 1.0) ]);
  check_names "rewind speedup 0.7" [ "recover.rewind_speedup" ]
    (throughput_failed [ ("recover.rewind_speedup", num 0.7) ])

(* The gate holds only timing checks; correctness lives in the test
   suites. *)
let test_throughput_timing_only () =
  check_names "the timing checks"
    [
      "replicated-8way.jobs2.speedup";
      "campaign.jobs2.speedup";
      "obs.enabled_overhead_pct";
      "recover.rewind_speedup";
      "diehard.ops_per_sec";
      "freelist-lea.ops_per_sec";
      "gc-bdw.ops_per_sec";
      "diehard-obs-off.ops_per_sec";
      "ckpt-write-plain.ops_per_sec";
    ]
    (List.map
       (function Gate.Threshold (name, _) | Gate.Baseline (name, _) -> name)
       Dh_bench.Throughput.checks)

let test_throughput_scaling () =
  let slow = [ ("replicated-8way.jobs2.speedup", num 1.0) ] in
  check_names "no speedup at jobs=2 on 2 cores" [ "replicated-8way.jobs2.speedup" ]
    (throughput_failed ~cores:2 slow);
  check_names "skipped on 1 core" [] (throughput_failed ~cores:1 slow)

let test_throughput_obs () =
  check_names "over the 45% budget" [ "obs.enabled_overhead_pct" ]
    (throughput_failed [ ("obs.enabled_overhead_pct", num 45.1) ]);
  check_names "at the budget" [] (throughput_failed [ ("obs.enabled_overhead_pct", num 45.) ])

let test_throughput_baseline () =
  let baseline = throughput [] in
  List.iter
    (function
      | name, Json.Number x when String.ends_with ~suffix:".ops_per_sec" name ->
        let at f = throughput_failed ~baseline [ (name, num (x *. f)) ] in
        check_names (name ^ " 6% below baseline") [ name ] (at 0.94);
        check_names (name ^ " 4% below baseline") [] (at 0.96);
        check_names (name ^ " against a quick baseline") []
          (failed
             ~baseline:(throughput ~quick:true [])
             Dh_bench.Throughput.checks
             (throughput [ (name, num (x *. 0.5)) ]))
      | _ -> ())
    throughput_metrics;
  (* A rate the baseline holds as something other than a number is a
     broken baseline, not a new metric: it fails instead of skipping. *)
  check_names "a non-numeric baseline rate" [ "diehard.ops_per_sec" ]
    (throughput_failed
       ~baseline:(throughput [ ("diehard.ops_per_sec", Json.String "fast") ])
       []);
  check_names "a rate the baseline lacks" []
    (throughput_failed
       ~baseline:
         {
           (throughput []) with
           Gate.exact =
             List.remove_assoc "diehard.ops_per_sec" (throughput []).Gate.exact;
         }
       [])

let test_every_failure_reported () =
  check_names "both failures named"
    [ "obs.enabled_overhead_pct"; "recover.rewind_speedup" ]
    (throughput_failed
       [ ("obs.enabled_overhead_pct", num 49.3); ("recover.rewind_speedup", num 0.9) ])

(* --- serve --- *)

let serve_config requests = [ ("quick", no); ("requests", num requests) ]

let serve ?cores ?(requests = 2e6) set =
  report ~bench:"serve" ?cores ~config:(serve_config requests)
    [
      ("checksum", num 555607551.);
      ("survived_randomized", yes);
      ("survival.seeds", num 8.);
      ("survival.survived", num 8.);
      ("slo.compliance", num 0.9999);
      ("slo.budget_used", num 0.0117);
      ("slo.breached", no);
    ]
    set

let serve_failed ?baseline ?cores set =
  failed ?baseline Dh_bench.Serve.checks (serve ?cores set)

let test_serve () =
  check_names "healthy" [] (serve_failed ~baseline:(serve []) []);
  check_names "not survived on a randomized heap" [ "survived_randomized" ]
    (serve_failed [ ("survived_randomized", no) ]);
  check_names "a lost seed" [ "survival" ] (serve_failed [ ("survival.survived", num 7.) ]);
  let wrong = [ ("checksum", num 1.) ] in
  check_names "checksum differs at equal config" [ "checksum" ]
    (serve_failed ~baseline:(serve []) wrong);
  check_names "checksum not compared across geometries" []
    (failed ~baseline:(serve ~requests:2e4 []) Dh_bench.Serve.checks (serve wrong));
  let breached = [ ("slo.breached", yes) ] in
  check_names "SLO breached on 2 cores" [ "slo" ] (serve_failed ~cores:2 breached);
  check_names "SLO skipped on 1 core" [] (serve_failed ~cores:1 breached)

(* --- space --- *)

let space ~quick ~best ~meshes =
  report ~bench:"space"
    ~config:[ ("quick", Json.Bool quick) ]
    (("best_ratio", num best)
    :: List.map (fun p -> (p ^ ".meshes", num meshes)) [ "cfrac"; "espresso"; "300.twolf" ])
    []

let space_failed ~quick ~best ~meshes =
  failed Dh_bench.Space.checks (space ~quick ~best ~meshes)

let test_space () =
  check_names "quick below 1.5" [ "best_ratio" ] (space_failed ~quick:true ~best:1.49 ~meshes:10.);
  check_names "quick at 1.5" [] (space_failed ~quick:true ~best:1.5 ~meshes:10.);
  check_names "full below 2.0" [ "best_ratio" ] (space_failed ~quick:false ~best:1.99 ~meshes:10.);
  check_names "full at 2.0" [] (space_failed ~quick:false ~best:2.0 ~meshes:10.);
  check_names "quick with no meshes skips" [] (space_failed ~quick:true ~best:1.0 ~meshes:0.);
  check_names "full with no meshes still gates" [ "best_ratio" ]
    (space_failed ~quick:false ~best:1.0 ~meshes:0.)

(* --- audit --- *)

let audit set =
  let row m =
    let key = Printf.sprintf "M=%g/%s" m in
    [
      (key "overflow.analytic", num 0.5);
      (key "overflow.measured", num 0.47);
      (key "overflow.tolerance", num 0.12);
      (key "dangling.analytic", num 0.95);
      (key "dangling.measured", num 0.955);
      (key "dangling.tolerance", num 0.05);
      (key "entropy.ratio", num 0.999);
    ]
  in
  report ~bench:"audit" ~config:[] (List.concat_map row [ 1.5; 2.; 3.; 4. ]) set

let test_audit () =
  let audit_failed set = failed Dh_bench.Audit.checks (audit set) in
  check_names "healthy" [] (audit_failed []);
  check_names "overflow off the curve at M=2" [ "M=2" ]
    (audit_failed [ ("M=2/overflow.measured", num 0.3) ]);
  check_names "entropy under the floor at M=4" [ "M=4" ]
    (audit_failed [ ("M=4/entropy.ratio", num 0.97) ])

(* --- the reader and writer --- *)

let in_temp_dir f =
  let dir = Filename.temp_dir "gate" "" in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect f ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove f) (Sys.readdir ".");
      Sys.chdir cwd;
      Sys.rmdir dir)

let test_read_write () =
  in_temp_dir (fun () ->
      Alcotest.(check bool) "missing file" true (Gate.read "serve" = Ok None);
      let r =
        { (serve []) with Gate.wall = [ ("wall_s", num (1. /. 3.)); ("max", Json.Null) ] }
      in
      Gate.write r;
      Alcotest.(check bool) "round trip" true (Gate.read "serve" = Ok (Some r));
      let unreadable contents =
        Out_channel.with_open_bin (Gate.path "serve") (fun oc ->
            output_string oc contents);
        match Gate.read "serve" with
        | Error _ as e ->
          check_names "an unreadable baseline fails the gate" [ "baseline" ]
            (Gate.evaluate ~baseline:e Dh_bench.Serve.checks (serve []))
        | Ok _ -> Alcotest.failf "%S read as a report" contents
      in
      unreadable "{\"schema\": \"diehard-bench/1\", ";
      unreadable "{\"schema\": \"diehard-bench-serve/1\", \"quick\": false}";
      unreadable
        (Json.to_string (Gate.to_json { (serve []) with Gate.bench = "space" })))

let test_json_printer () =
  List.iter
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' when v' = v -> ()
      | Ok _ -> Alcotest.failf "%s changed in a round trip" (Json.to_string v)
      | Error e -> Alcotest.failf "%s: %s" (Json.to_string v) e)
    [
      Json.Null;
      Json.Obj [];
      Json.List [];
      Json.String "tab\t quote\" backslash\\ newline\n bell\007";
      Json.List (List.map num [ 0.1; 1. /. 3.; -0.5; 1e300; 5e-324; 9007199254740993.; 42. ]);
      Json.Obj
        [
          ("nested", Json.Obj [ ("deep", Json.List [ yes; no; Json.Null ]) ]);
          ("long", Json.List (List.init 40 (fun i -> num (float_of_int i))));
        ];
    ]

let suite =
  [
    Alcotest.test_case "throughput: healthy report passes" `Quick test_throughput_healthy;
    Alcotest.test_case "throughput: rewind slower than a restart fails" `Quick
      test_throughput_rewind;
    Alcotest.test_case "throughput: the gate only times" `Quick
      test_throughput_timing_only;
    Alcotest.test_case "throughput: scaling, skipped on 1 core" `Quick
      test_throughput_scaling;
    Alcotest.test_case "throughput: obs overhead budget" `Quick test_throughput_obs;
    Alcotest.test_case "throughput: rates against a same-config baseline" `Quick
      test_throughput_baseline;
    Alcotest.test_case "every failing check is reported" `Quick test_every_failure_reported;
    Alcotest.test_case "serve: survival, checksum, SLO" `Quick test_serve;
    Alcotest.test_case "space: meshing ratio bars and quick skip" `Quick test_space;
    Alcotest.test_case "audit: one failing row" `Quick test_audit;
    Alcotest.test_case "report read/write" `Quick test_read_write;
    Alcotest.test_case "json printer round-trips" `Quick test_json_printer;
  ]
