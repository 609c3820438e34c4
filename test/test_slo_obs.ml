(* Tests for the serve-loop SLO observability stack: Quantile's
   two-level bucketing against a sorted-array oracle, audits written
   from real domains, the serve SLO read off the latency histogram at
   its edges, the flight recorder's step groups, and the supervisor's
   serve telemetry (one latency histogram per run, and write-only:
   output is identical with observability on or off). *)

module Quantile = Dh_obs.Quantile
module Tracing = Dh_obs.Tracing
module Recorder = Dh_obs.Recorder
module Audit = Dh_obs.Audit
module Supervisor = Diehard.Supervisor
module Server = Dh_workload.Server
module Serve = Dh_bench.Serve

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- Quantile bucketing --------------------------------------------- *)

let fine = 1 lsl Quantile.fine_bits
let exact_limit = 2 * fine

let test_bucket_exact_below_limit () =
  for v = 0 to exact_limit - 1 do
    check_int (Printf.sprintf "bucket_of %d exact" v) v (Quantile.bucket_of v);
    let lo, hi = Quantile.bucket_bounds v in
    check_int "lo exact" v lo;
    check_int "hi exact" v hi
  done

let test_bucket_continuity () =
  (* Consecutive buckets tile the integers with no gap and no overlap,
     up to the bucket holding max_int. *)
  let top = Quantile.bucket_of max_int in
  for i = 0 to top - 1 do
    let _, hi = Quantile.bucket_bounds i in
    let lo', _ = Quantile.bucket_bounds (i + 1) in
    check_int (Printf.sprintf "bucket %d..%d contiguous" i (i + 1)) (hi + 1) lo'
  done;
  check "max_int in range" true
    (top < Array.length (Quantile.counts (Quantile.create ())));
  let lo, hi = Quantile.bucket_bounds top in
  check "max_int inside its bucket" true (lo <= max_int && max_int <= hi)

let prop_bucket_roundtrip =
  QCheck.Test.make ~name:"quantile: v lies inside bucket_bounds (bucket_of v)"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(
         oneof
           [ int_bound (exact_limit * 4); int_bound 1_000_000;
             map abs (int_range 0 max_int) ]))
    (fun v ->
      let b = Quantile.bucket_of v in
      let lo, hi = Quantile.bucket_bounds b in
      lo <= v && v <= hi
      (* the error bound the mli promises *)
      && hi - lo <= (lo / fine) + 1
      (* monotone at the sample's neighbours *)
      && (v = 0 || Quantile.bucket_of (v - 1) <= b)
      && (v = max_int || b <= Quantile.bucket_of (v + 1)))

(* The oracle: the reported quantile is the upper bound of the bucket
   holding the exact rank-⌈qN⌉ order statistic — never below it, and
   within the relative-error bound above it. *)
let prop_quantile_vs_sorted_oracle =
  QCheck.Test.make ~name:"quantile: matches sorted-array oracle within bounds"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 200)
              (oneof [ int_bound 50; int_bound 5000; int_bound 1_000_000 ]))
           (float_bound_inclusive 1.0)))
    (fun (samples, q) ->
      let t = Quantile.create () in
      List.iter (Quantile.record t) samples;
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      let rank = min n (max 1 (int_of_float (ceil (q *. float_of_int n)))) in
      let exact = List.nth sorted (rank - 1) in
      let reported = Quantile.quantile t q in
      reported = snd (Quantile.bucket_bounds (Quantile.bucket_of exact))
      && reported >= exact
      && reported <= exact + (exact / fine) + 1
      && (exact >= exact_limit || reported = exact))

let test_snapshot_arithmetic () =
  let t = Quantile.create () in
  List.iter (Quantile.record t) [ 5; 10; 15 ];
  check_int "count" 3 (Quantile.count t);
  check "sum" true (String.ends_with ~suffix:",30\n" (Quantile.to_csv [ ("t", t) ]));
  check_int "max_value exact below limit" 15 (Quantile.max_value t);
  check_int "empty quantile" 0 (Quantile.quantile (Quantile.create ()) 0.5);
  (match Quantile.record t (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative sample accepted")

(* The serve loop's latency sample is [Tracing.elapsed_ns] of two clock
   stamps.  A pair that runs backwards (a clock step) must give 0, never
   a negative sample the histogram would reject mid-serve. *)
let test_latency_never_negative () =
  check_int "forward pair" 1_500 (Tracing.elapsed_ns ~since:10_000 ~now:11_500);
  check_int "equal stamps" 0 (Tracing.elapsed_ns ~since:10_000 ~now:10_000);
  check_int "backward pair" 0 (Tracing.elapsed_ns ~since:11_500 ~now:10_000);
  let h = Quantile.create () in
  Quantile.record h (Tracing.elapsed_ns ~since:max_int ~now:0);
  check_int "a backward sample records as 0" 1 (Quantile.counts h).(0);
  let prev = ref (Tracing.now_ns ()) in
  for _ = 1 to 10_000 do
    let now = Tracing.now_ns () in
    if now < !prev then Alcotest.fail "now_ns stepped backwards";
    prev := now
  done

(* Four domains record disjoint slices into four audits, one per
   domain, each on its own space's recorder under its own ambient site.  Each audit must
   hold only its own domain's slice, the four must fold to the whole,
   and record_alloc must return that domain's site. *)
let test_audit_shards_under_domains () =
  let site_of d = Audit.site (Printf.sprintf "test.sharded.site%d" d) in
  let sites = List.init 4 site_of in
  let slice d = List.init 500 (fun i -> (d * 10_000) + (i * 7)) in
  let class_of v = v mod 12 and index_of v = v mod 64 in
  let record_audit obs audit site v =
    let record v =
      Audit.record_alloc audit ~class_:(class_of v) ~index:(index_of v) ~capacity:64
    in
    if Audit.with_site obs site record v <> site then
      failwith "record_alloc did not return the ambient site"
  in
  let fresh_audit () =
    let obs = Recorder.create ~on:true in
    (obs, Audit.create obs)
  in
  let domains =
    List.mapi
      (fun d site ->
        Domain.spawn (fun () ->
            let obs, audit = fresh_audit () in
            List.iter (record_audit obs audit site) (slice d);
            audit))
      sites
  in
  let audits = List.map Domain.join domains in
  let all = List.concat_map slice [ 0; 1; 2; 3 ] in
  (* [audits] folded, against the values recorded and their sites *)
  let audit_matches audits vs sites =
    let snap = Audit.snapshot audits in
    let classes = Array.length snap.Audit.classes in
    let allocs = Array.make classes 0 in
    let slots = Array.make_matrix classes Audit.slot_buckets 0 in
    List.iter
      (fun v ->
        allocs.(class_of v) <- allocs.(class_of v) + 1;
        slots.(class_of v).(index_of v) <- slots.(class_of v).(index_of v) + 1)
      vs;
    Array.for_all
      (fun (cs : Audit.class_stat) ->
        cs.Audit.allocs = allocs.(cs.Audit.cls)
        && cs.Audit.slot_hist = slots.(cs.Audit.cls))
      snap.Audit.classes
    && List.map
         (fun (s : Audit.site_stat) -> (s.Audit.site_id, s.Audit.s_allocs))
         snap.Audit.sites
       = sites
  in
  List.iteri
    (fun d audit ->
      check
        (Printf.sprintf "domain %d's audit holds only its slice" d)
        true
        (audit_matches [ audit ] (slice d) [ (site_of d, 500) ]))
    audits;
  check "the four audits fold to the whole" true
    (audit_matches audits all (List.map (fun site -> (site, 500)) sites));
  check_int "site re-interned at the same id" (List.hd sites) (site_of 0);
  let again = [ 3; 700; 70_000 ] in
  let obs, audit = fresh_audit () in
  List.iter (record_audit obs audit (List.hd sites)) again;
  check "a fresh audit holds only its own records" true
    (audit_matches [ audit ] again [ (List.hd sites, 3) ])

(* --- the SLO read off the latency histogram ------------------------- *)

let latency_of samples =
  let h = Quantile.create () in
  List.iter (Quantile.record h) samples;
  h

let test_slo_zero_requests () =
  let r = Serve.slo_of (Quantile.create ()) ~rewinds:0 in
  check_int "no requests" 0 r.Serve.total;
  check "compliance 1.0" true (r.Serve.compliance = 1.0);
  check "budget unused" true (r.Serve.budget_used = 0.0);
  check "not breached" true (not r.Serve.breached)

let test_slo_all_errors () =
  (* eight requests, each rewound and none handled yet *)
  let r = Serve.slo_of (Quantile.create ()) ~rewinds:8 in
  check_int "all bad" 8 r.Serve.bad;
  check "compliance 0" true (r.Serve.compliance = 0.0);
  check "budget_used = 1/budget" true
    (abs_float (r.Serve.budget_used -. (1. /. Serve.slo_budget)) < 1e-9);
  check "breached" true r.Serve.breached

let test_slo_latency_classification () =
  let bad samples = (Serve.slo_of (latency_of samples) ~rewinds:0).Serve.bad in
  (* the bucket holding the 200,000 ns target spans 196,608..200,703 *)
  check_int "196,607 ns is good" 0 (bad [ 196_607 ]);
  check_int "196,608 ns shares the target's bucket: bad" 1 (bad [ 196_608 ]);
  check_int "200,000 ns is bad" 1 (bad [ 200_000 ]);
  let r = Serve.slo_of (latency_of [ 1; 196_607; 196_608; 200_000 ]) ~rewinds:1 in
  check_int "handled plus rewound" 5 r.Serve.total;
  check_int "rewind plus two slow samples" 3 r.Serve.bad

(* --- Recorder step groups ------------------------------------------- *)

let test_step_groups () =
  let recorder = Recorder.create ~on:true in
  Recorder.instant ~arg:0 recorder "setup";
  List.iter
    (fun k ->
      Recorder.span ~arg:k recorder "replay.step" (fun () ->
          Recorder.instant ~arg:(100 + k) recorder "handler"))
    [ 7; 8; 9 ];
  Recorder.set_step recorder 9;
  Recorder.trigger ~reason:"test" recorder;
  Recorder.clear_step recorder;
  match Recorder.last recorder with
  | None -> Alcotest.fail "no report"
  | Some r ->
    check "step recorded" true (r.Recorder.step = Some 9);
    let groups = Recorder.step_groups r in
    check_int "preamble + 3 steps" 4 (List.length groups);
    (match groups with
    | pre :: steps ->
      check_str "preamble arg" "" pre.Recorder.step_arg;
      List.iteri
        (fun i g ->
          check_str
            (Printf.sprintf "step group %d" i)
            (string_of_int (7 + i))
            g.Recorder.step_arg;
          (* Begin, the handler instant, End *)
          check_int "events per step" 3 (List.length g.Recorder.step_events))
        steps
    | [] -> Alcotest.fail "no groups")

let test_advertised_step () =
  let recorder = Recorder.create ~on:true in
  Recorder.set_step recorder 42;
  Recorder.trigger ~reason:"implicit step" recorder;
  (match Recorder.last recorder with
  | Some r -> check "advertised step filled in" true (r.Recorder.step = Some 42)
  | None -> Alcotest.fail "no report");
  Recorder.clear_step recorder;
  Recorder.trigger ~reason:"no step" recorder;
  match Recorder.last recorder with
  | Some r -> check "cleared step absent" true (r.Recorder.step = None)
  | None -> Alcotest.fail "no report"

(* --- the supervisor's serve telemetry -------------------------------- *)

let serve_incident ~obs () =
  let policy =
    {
      Supervisor.default_policy with
      Supervisor.checkpoint_interval = 64;
      max_rewinds = 32;
    }
  in
  Supervisor.run ~policy
    ~config:(Diehard.Config.v ~heap_size:Server.heap_size ~obs ())
    ~seed_pool:(Dh_rng.Seed.create ~master:5)
    (Server.program ~requests:512 ~attack_every:48 ())

let test_serve_telemetry () =
  let incident = serve_incident ~obs:true () in
  check "survived" true (incident.Supervisor.verdict <> Supervisor.Gave_up);
  let latency = incident.Supervisor.latency in
  (* every request (plus rewound replays) recorded a latency *)
  check "latency samples >= requests" true (Quantile.count latency >= 512);
  check "latencies are positive" true (Quantile.quantile latency 0.5 > 0)

(* Two obs-on supervised runs in one process, and one obs-off run: each
   incident's histogram holds exactly the requests its own run handled,
   rewound replays included, counted by a wrapper around the server's
   handler (a request that faults returns no sample).  An attack every
   17 requests makes the run rewind.  The obs-off run's histogram is
   empty. *)
let test_serve_latency_per_run () =
  let run ~obs =
    let handled = ref 0 in
    let svc = Option.get (Server.program ~requests:512 ~attack_every:17 ()).service in
    let init ctx =
      let h = svc.Dh_alloc.Program.init ctx in
      let handle k =
        h.Dh_alloc.Program.handle k;
        incr handled
      in
      { h with Dh_alloc.Program.handle }
    in
    let incident =
      Supervisor.run
        ~policy:
          {
            Supervisor.default_policy with
            Supervisor.checkpoint_interval = 64;
            max_rewinds = 32;
            diagnose = false;
          }
        ~config:(Diehard.Config.v ~heap_size:Server.heap_size ~obs ())
        ~seed_pool:(Dh_rng.Seed.create ~master:5)
        (Dh_alloc.Program.of_service ~name:"server" { svc with init })
    in
    (Quantile.count incident.Supervisor.latency, !handled)
  in
  let first, handled = run ~obs:true in
  check "the run replayed rewound requests" true (handled > 512);
  check_int "first run: its own requests" handled first;
  let second, handled = run ~obs:true in
  check_int "second run: its own requests, none of the first's" handled second;
  let off, _ = run ~obs:false in
  check_int "obs-off run: empty" 0 off

(* An obs-on supervised server that faults (2,000 requests, attack every
   97; attempt 0 dies on its first fault): the incident, its first
   flight record, and attempt 0's allocator (the supervisor builds every
   rung and replay in order, attempt 0's first). *)
let faulting_incident () =
  let allocs = ref [] in
  let incident =
    Supervisor.run
      ~config:(Diehard.Config.v ~heap_size:Server.heap_size ~obs:true ())
      ~wrap:(fun _plan alloc ->
        allocs := alloc :: !allocs;
        alloc)
      (Server.program ~requests:2000 ~attack_every:97 ())
  in
  let first =
    match incident.Supervisor.flight with
    | r :: _ -> r
    | [] -> Alcotest.fail "no flight record"
  in
  (incident, first, List.hd (List.rev !allocs))

let section (r : Recorder.report) title =
  match List.find_opt (fun s -> s.Recorder.title = title) r.Recorder.sections with
  | Some s -> List.filter (fun l -> l <> "") (String.split_on_char '\n' s.Recorder.body)
  | None -> Alcotest.failf "no %s section" title

(* The most suspect sites live in the incident's offenders, folded
   from the ladder attempts' heaps.  A capture carries only its
   triggering component's evidence: no top-sites section and no
   heap.occupancy section, since the recorder reads no heap and no
   audit. *)
let test_offenders_not_captures () =
  let incident, _, _ = faulting_incident () in
  check "offenders name the server's sites" true
    (List.exists
       (fun (s : Audit.site_stat) -> String.starts_with ~prefix:"server:" s.Audit.name)
       incident.Supervisor.offenders);
  List.iter
    (fun (r : Recorder.report) ->
      List.iter
        (fun title ->
          check (title ^ " section absent") false
            (List.exists (fun s -> s.Recorder.title = title) r.Recorder.sections))
        [ "audit.top-sites"; "heap.occupancy" ])
    incident.Supervisor.flight

(* Two identical obs-on supervised runs in one process report the same
   offenders: each counts only its own attempts' heaps. *)
let test_offenders_per_run () =
  let offenders () =
    (Supervisor.run
       ~config:(Diehard.Config.v ~heap_size:Server.heap_size ~obs:true ())
       (Server.program ~requests:512 ()))
      .Supervisor.offenders
  in
  let first = offenders () in
  let title = List.find (fun (s : Audit.site_stat) -> s.Audit.name = "server:title") first in
  check_int "one title per request" 512 title.Audit.s_allocs;
  check "the second run's offenders equal the first's" true (offenders () = first)

(* A fault's flight record carries the counters of the address space
   that raised it — attempt 0's, not those of whichever space was built
   last (the diagnosis replay's). *)
let test_flight_record_mem_counters () =
  let _, r, attempt0 = faulting_incident () in
  let mem = attempt0.Dh_alloc.Allocator.mem in
  let s = Dh_mem.Mem.stats mem in
  Alcotest.(check (list string))
    "mem counters = attempt 0's Mem.stats"
    [
      Printf.sprintf
        "reads=%d writes=%d mmaps=%d munmaps=%d tlb_misses=%d cache_misses=%d \
         dirty_pages=%d touched_pages=%d preimaged_pages=%d"
        s.reads s.writes s.mmaps s.munmaps s.tlb_misses s.cache_misses s.dirty_pages
        (Dh_mem.Mem.touched_pages mem) (Dh_mem.Mem.preimaged_pages mem);
    ]
    (section r "mem counters")

(* An attempt that fails without a fault (here, exit 3 after three
   mallocs) leaves a flight record holding its own heap's Stats line. *)
let test_failed_attempt_heap_stats () =
  let exits_3 =
    Dh_alloc.Program.make ~name:"exits-3" (fun ctx ->
        for _ = 1 to 3 do
          ignore (Dh_alloc.Allocator.malloc_exn ctx.Dh_alloc.Program.alloc 64)
        done;
        raise (Dh_mem.Process.Exit_program 3))
  in
  let allocs = ref [] in
  let incident =
    Supervisor.run
      ~policy:
        { Supervisor.default_policy with max_retries = 0; rescue = false; diagnose = false }
      ~config:(Diehard.Config.v ~obs:true ())
      ~wrap:(fun _plan alloc ->
        allocs := alloc :: !allocs;
        alloc)
      exits_3
  in
  match (incident.Supervisor.flight, !allocs) with
  | [ r ], [ attempt0 ] ->
    Alcotest.(check (list string))
      "heap stats = attempt 0's Stats"
      [ Format.asprintf "%a" Dh_alloc.Stats.pp attempt0.Dh_alloc.Allocator.stats ]
      (section r "heap stats");
    check_int "three mallocs" 3 attempt0.Dh_alloc.Allocator.stats.mallocs
  | flight, allocs ->
    Alcotest.failf "%d flight records and %d attempts, want 1 and 1" (List.length flight)
      (List.length allocs)

(* A fault's flight record stays with the address space that raised
   it: an obs-on [Program.run] that faults, then a supervised run that
   survives its first attempt, whose incident holds no capture. *)
let test_earlier_fault_not_in_incident () =
  let doomed =
    Dh_alloc.Program.make ~name:"null-write" (fun ctx ->
        Dh_mem.Mem.write8 ctx.Dh_alloc.Program.alloc.Dh_alloc.Allocator.mem 8 1)
  in
  let mem = Dh_mem.Mem.create ~obs:true () in
  let alloc = Diehard.Heap.allocator (Diehard.Heap.create ~config:Diehard.Config.default mem) in
  let r = Dh_alloc.Program.run doomed alloc in
  check "the first run crashed" true
    (match r.Dh_mem.Process.outcome with Dh_mem.Process.Crashed _ -> true | _ -> false);
  check_int "its fault is in its own address space's record" 1
    (List.length (Recorder.reports (Dh_mem.Mem.recorder mem)));
  let incident =
    Supervisor.run
      ~config:(Diehard.Config.v ~heap_size:Server.heap_size ~obs:true ())
      (Server.program ~requests:64 ())
  in
  check "survived its first attempt" true
    (incident.Supervisor.verdict = Supervisor.Survived 0);
  check_int "the incident holds no capture" 0 (List.length incident.Supervisor.flight)

let test_serve_telemetry_write_only () =
  (* The determinism contract: the same run with telemetry on and off
     must produce identical program output. *)
  let out_with_obs = (serve_incident ~obs:true ()).Supervisor.output in
  let out_without = (serve_incident ~obs:false ()).Supervisor.output in
  check "output identical with obs on/off" true (out_with_obs = out_without)

(* The serve bench's leg at 200k requests, ten times its quick size:
   big enough to rewind (the quick leg never does), small enough for
   every test run.  The full 2M-request checksum stays in `serve-gate`. *)
let test_serve_leg_fingerprint () =
  let l = Dh_bench.Serve.run_leg ~requests:200_000 ~seed:1 () in
  check_int "checksum" 11643189 l.Dh_bench.Serve.checksum;
  check_int "failed requests" 0 l.Dh_bench.Serve.failed;
  check_int "rewinds" 5 l.Dh_bench.Serve.rewinds;
  check_int "slo total (201,999 handled + 5 rewinds)" 202_004 l.Serve.slo.Serve.total;
  check "survived on a randomized heap" true l.Dh_bench.Serve.survived_randomized

(* The obs work a served request costs, counted from instrument totals
   on a short serve leg: the serve loop's one latency sample per handled
   request (replays included), and the heap's one audit record per malloc and
   per free plus their sampled trace instants.  The audit records are
   read from the leg's heaps, through the incident's offenders, and the
   instants from the events it returned: the server allocates at four
   named sites, and nothing at this length is refused by the threshold.
   Every count is a deterministic function of the leg. *)
let test_serve_records_per_request () =
  let requests = 2_000 in
  let l = Dh_bench.Serve.run_leg ~requests ~seed:1 () in
  let handled = Quantile.count l.Dh_bench.Serve.latency in
  check_int "all four server sites" 4 (List.length l.Dh_bench.Serve.offenders);
  let audit =
    List.fold_left
      (fun acc (s : Audit.site_stat) -> acc + s.Audit.s_allocs + s.Audit.s_frees)
      0 l.Dh_bench.Serve.offenders
  in
  let instants =
    List.length
      (List.filter
         (fun e -> e.Tracing.name = "heap.malloc" || e.Tracing.name = "heap.free")
         l.Dh_bench.Serve.events)
  in
  let named name =
    List.length (List.filter (fun e -> e.Tracing.name = name) l.Dh_bench.Serve.events)
  in
  check_int "one attempt's span, so one space" 2 (named "supervisor.attempt");
  check "its ring dropped no event" true
    (List.length l.Dh_bench.Serve.events < Tracing.ring_capacity);
  check_int "handled requests (no rewind at this length)" requests handled;
  check_int "audit records (mallocs and frees)" 5_218 audit;
  check_int "sampled heap instants" 83 instants;
  (* 7,301 records over 2,000 requests: about 3.65 per served request *)
  check_int "obs records in the leg" 7_301
    (handled + audit + instants)

let test_zipf_keys_deterministic () =
  (* Zipf-keyed serving is still a pure function of the request index:
     two supervised runs with the same seed agree byte for byte, and the
     skew changes the output (it really is a different key stream). *)
  let run ?zipf () =
    let policy =
      { Supervisor.default_policy with Supervisor.checkpoint_interval = 64 }
    in
    (Supervisor.run ~policy
       ~config:(Diehard.Config.v ~heap_size:Server.heap_size ())
       ~seed_pool:(Dh_rng.Seed.create ~master:5)
       (Server.program ~requests:256 ~attack_every:48 ?zipf ()))
      .Supervisor.output
  in
  check "zipf run deterministic" true (run ~zipf:1.1 () = run ~zipf:1.1 ());
  check "zipf changes the key stream" true (run ~zipf:1.1 () <> run ())

let suite =
  [
    Alcotest.test_case "quantile: exact below 2*fine" `Quick
      test_bucket_exact_below_limit;
    Alcotest.test_case "quantile: buckets tile the integers" `Quick
      test_bucket_continuity;
    QCheck_alcotest.to_alcotest prop_bucket_roundtrip;
    QCheck_alcotest.to_alcotest prop_quantile_vs_sorted_oracle;
    Alcotest.test_case "quantile: snapshot arithmetic" `Quick
      test_snapshot_arithmetic;
    Alcotest.test_case "audit: shards under domains" `Quick
      test_audit_shards_under_domains;
    Alcotest.test_case "slo: zero requests" `Quick test_slo_zero_requests;
    Alcotest.test_case "slo: 100% errors burns 1/budget" `Quick
      test_slo_all_errors;
    Alcotest.test_case "slo: latency classification" `Quick
      test_slo_latency_classification;
    Alcotest.test_case "recorder: step groups" `Quick
      test_step_groups;
    Alcotest.test_case "recorder: advertised step fills reports" `Quick
      test_advertised_step;
    Alcotest.test_case "recorder: top sites are the incident's" `Quick
      test_offenders_not_captures;
    Alcotest.test_case "supervisor: offenders count one run" `Quick
      test_offenders_per_run;
    Alcotest.test_case "recorder: a fault's record carries its own mem counters" `Quick
      test_flight_record_mem_counters;
    Alcotest.test_case "recorder: a failed attempt's record carries its heap stats" `Quick
      test_failed_attempt_heap_stats;
    Alcotest.test_case "recorder: an earlier run's fault stays out of an incident" `Quick
      test_earlier_fault_not_in_incident;
    Alcotest.test_case "serve: supervisor publishes telemetry" `Quick
      test_serve_telemetry;
    Alcotest.test_case "serve: each supervised run owns its latency" `Quick
      test_serve_latency_per_run;
    Alcotest.test_case "serve: telemetry is write-only" `Quick
      test_serve_telemetry_write_only;
    Alcotest.test_case "serve: zipf keys stay deterministic" `Quick
      test_zipf_keys_deterministic;
    Alcotest.test_case "latency: a backward stamp pair records 0" `Quick
      test_latency_never_negative;
    Alcotest.test_case "serve: obs records per served request" `Quick
      test_serve_records_per_request;
    Alcotest.test_case "serve: 200k-request leg fingerprint" `Quick
      test_serve_leg_fingerprint;
  ]
