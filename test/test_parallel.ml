(* Tests for the Domains-based execution engine: the Dh_parallel pool
   and the split-before-fan-out seed rule, plus the determinism contract of the parallel drivers —
   for a fixed master seed, `jobs = n` must reproduce `jobs = 1` exactly
   (replica verdicts, campaign tallies) — and the rule that telemetry
   leaves a supervised run's incident unchanged. *)

module Mem = Dh_mem.Mem
module Process = Dh_mem.Process
module Allocator = Dh_alloc.Allocator
module Program = Dh_alloc.Program
module Pool = Dh_parallel.Pool
module Seed = Dh_rng.Seed
open Diehard

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- pool mechanics --- *)

let test_pool_empty () =
  check "empty" true (Pool.init ~jobs:4 0 (fun x -> x * 2) = [||])

let test_pool_singleton () =
  check "singleton" true (Pool.init ~jobs:4 1 (fun x -> x + 42) = [| 42 |])

let test_pool_jobs_exceed_items () =
  (* More domains than work: every item still computed exactly once, in
     order. *)
  check "3 items, 8 jobs" true
    (Pool.init ~jobs:8 3 (fun x -> (x + 1) * (x + 1)) = [| 1; 4; 9 |])

let test_pool_preserves_order () =
  let expected = Array.init 100 (fun x -> (x * 7) + 1) in
  List.iter
    (fun jobs ->
      check
        (Printf.sprintf "order at jobs=%d" jobs)
        true
        (Pool.init ~jobs 100 (fun x -> (x * 7) + 1) = expected))
    [ 1; 2; 3; 4; 7 ]

let test_pool_exception_propagation () =
  (* The lowest-indexed failing item's exception surfaces, sequentially
     and in parallel alike. *)
  let f i = if i = 5 || i = 7 then failwith (Printf.sprintf "item %d" i) else i in
  List.iter
    (fun jobs ->
      match Pool.init ~jobs 10 f with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Failure msg ->
        Alcotest.(check string)
          (Printf.sprintf "first failure wins at jobs=%d" jobs)
          "item 5" msg)
    [ 1; 4 ]

let test_pool_rejects_bad_jobs () =
  Alcotest.check_raises "jobs=0" (Invalid_argument "Pool.init: jobs must be >= 1")
    (fun () -> ignore (Pool.init ~jobs:0 4 Fun.id));
  Alcotest.check_raises "config jobs=0" (Invalid_argument "Config: jobs must be >= 1")
    (fun () -> ignore (Config.v ~jobs:0 ()))

let test_pool_default_jobs () =
  check "recommended >= 1" true (Pool.default_jobs () >= 1)

(* --- seed split / plan --- *)

let test_seed_split_matches_fresh () =
  let a = Seed.create ~master:77 and b = Seed.create ~master:77 in
  let split = Seed.split ~n:5 a in
  let drawn = Array.init 5 (fun _ -> Seed.fresh b) in
  check "split = 5 fresh draws" true (split = drawn);
  (* the stream continues after the split block *)
  check "stream continues" true (Seed.fresh a = Seed.fresh b)

let test_seed_split_empty () =
  let a = Seed.create ~master:1 and b = Seed.create ~master:1 in
  check "n=0 draws nothing" true
    (Seed.split ~n:0 a = [||] && Seed.fresh a = Seed.fresh b);
  Alcotest.check_raises "negative n" (Invalid_argument "Seed.split: n must be >= 0")
    (fun () -> ignore (Seed.split ~n:(-1) a))

let test_seed_plan_fixed_assignment () =
  (* The fan-out rule: one split block drawn before any task runs, then
     task i takes seed i — the i-th sequential [fresh] draw — on any
     pool width. *)
  let sequential =
    let s = Seed.create ~master:5 in
    Array.init 4 (fun _ -> Seed.fresh s)
  in
  List.iter
    (fun jobs ->
      let seeds = Seed.split ~n:4 (Seed.create ~master:5) in
      let got = Pool.init ~jobs 4 (fun i -> (i, seeds.(i))) in
      check
        (Printf.sprintf "split seeds by index at jobs=%d" jobs)
        true
        (got = Array.init 4 (fun i -> (i, sequential.(i)))))
    [ 1; 3 ]

(* --- parallel drivers reproduce sequential results --- *)

let small_config ~jobs =
  Config.v ~heap_size:(12 * 64 * 1024) ~jobs ()

(* Heap-layout-sensitive program: output depends on where objects land,
   so replicas genuinely differ and voting does real work. *)
let layout_program =
  Program.make ~name:"layout" (fun ctx ->
      let a = ctx.Program.alloc in
      let p = Allocator.malloc_exn a 32 in
      let q = Allocator.malloc_exn a 32 in
      Process.Out.printf ctx.Program.out "d=%d" ((q - p) land 0xFF);
      a.Allocator.free p;
      a.Allocator.free q)

let uninit_program =
  Program.make ~name:"uninit" (fun ctx ->
      let a = ctx.Program.alloc in
      let p = Allocator.malloc_exn a 64 in
      Process.Out.printf ctx.Program.out "%d" (Mem.read64 a.Allocator.mem p))

(* Crashes or not depending on heap garbage — some replicas die. *)
let flaky_program =
  Program.make ~name:"flaky" (fun ctx ->
      let a = ctx.Program.alloc in
      let p = Allocator.malloc_exn a 8 in
      let garbage = Mem.read64 a.Allocator.mem p in
      if garbage land 3 = 0 then ignore (Mem.read8 a.Allocator.mem 0);
      Process.Out.print_string ctx.Program.out "ok")

let replicated_report ~jobs ~master ~replicas program =
  Replicated.run
    ~config:(small_config ~jobs)
    ~replicas
    ~seed_pool:(Seed.create ~master)
    program

let prop_replicated_jobs_equivalence =
  QCheck.Test.make ~name:"replicated: jobs=n report equals jobs=1" ~count:15
    QCheck.(
      triple (int_bound 1000)
        (QCheck.oneofl [ 1; 3; 5 ])
        (QCheck.oneofl [ (layout_program, "layout"); (uninit_program, "uninit");
                         (flaky_program, "flaky") ]))
    (fun (master, replicas, (program, _)) ->
      let seq = replicated_report ~jobs:1 ~master ~replicas program in
      List.for_all
        (fun jobs -> replicated_report ~jobs ~master ~replicas program = seq)
        [ 2; 4 ])

(* The throughput bench's 8-way replicated churn, at the size its quick
   scaling sweep runs. *)
let test_replicated_churn_jobs_equivalence () =
  let run = Dh_bench.Throughput.replicated_churn ~obs:false ~ops:4_000 in
  let seq = run ~jobs:1 in
  check "replicas agree" true (seq.Replicated.verdict = Replicated.Agreed);
  List.iter
    (fun jobs -> check (Printf.sprintf "report at jobs=%d" jobs) true (run ~jobs = seq))
    [ 2; 4 ]

(* Dangling-pointer campaigns over the throughput bench's churn: a
   small one with a dense injector, and the bench's own campaign at the
   size its quick scaling sweep runs. *)
let dense_spec =
  { Dh_fault.Injector.paper_dangling with
    Dh_fault.Injector.dangling_rate = 0.8;
    dangling_distance = 4;
    seed = 99
  }

let test_campaign_jobs_equivalence () =
  List.iter
    (fun (what, campaign) ->
      let seq = campaign ~jobs:1 in
      check (what ^ ": some trials misbehave (campaign is non-trivial)") true
        (seq.Dh_fault.Campaign.correct < seq.Dh_fault.Campaign.trials);
      List.iter
        (fun jobs ->
          check (Printf.sprintf "%s: tally at jobs=%d" what jobs) true (campaign ~jobs = seq))
        [ 2; 4 ])
    [
      ("20 x 200", Dh_bench.Throughput.campaign ~obs:false ~spec:dense_spec ~trials:20 ~ops:200);
      ( "64 x 500",
        Dh_bench.Throughput.(campaign ~obs:false ~spec:campaign_spec ~trials:64 ~ops:500) );
    ]

let supervisor_incident ~obs ~master =
  Supervisor.run
    ~policy:{ Supervisor.default_policy with Supervisor.fuel = 1_000_000 }
    ~config:{ (small_config ~jobs:1) with Config.obs }
    ~seed_pool:(Seed.create ~master)
    Test_supervisor.seed_sensitive_crasher

(* --- spawn and join --- *)

(* Every fan-out spawns its helpers and joins them before it returns:
   two successive jobs=4 fan-outs each spawn three fresh helpers, and a
   jobs=1 one spawns none. *)
let test_pool_joins_helpers () =
  let fan_out ~jobs =
    let before = Pool.spawned_domains () in
    ignore (Pool.init ~jobs 64 (fun x -> x + 1));
    Pool.spawned_domains () - before
  in
  check_int "first jobs=4 fan-out spawns 3 helpers" 3 (fan_out ~jobs:4);
  check_int "second jobs=4 fan-out spawns 3 more" 3 (fan_out ~jobs:4);
  check_int "jobs=1 spawns nothing" 0 (fan_out ~jobs:1)

(* A fan-out inside a fan-out item: results must match the sequential
   run, however many helpers the inner fan-outs get. *)
let test_pool_nested () =
  let nested ~jobs =
    Pool.init ~jobs 4 (fun i -> Pool.init ~jobs 8 (fun j -> (i * 8) + j))
  in
  check "nested jobs=2 equals jobs=1" true (nested ~jobs:2 = nested ~jobs:1)

(* --- telemetry under the pool --- *)

(* The fault a write of byte 1 to [addr] raises on a fresh space. *)
let fault_at addr =
  match Mem.write8 (Mem.create ()) addr 1 with
  | () -> Alcotest.fail "no fault"
  | exception Dh_mem.Fault.Error f -> Dh_mem.Fault.to_string f

(* Supervised runs side by side on two domains each keep their own
   flight records: a crasher (one attempt, no rescue, no diagnosis)
   writes to its own address in the NULL guard zone, and its incident
   holds exactly that fault; a clean run's holds nothing. *)
let test_flight_per_run_under_pool () =
  let crasher i =
    Program.make ~name:"crasher" (fun ctx ->
        Mem.write8 ctx.Program.alloc.Allocator.mem (8 * (i + 1)) 1)
  in
  let clean =
    Program.make ~name:"clean" (fun ctx ->
        for _ = 1 to 64 do
          ignore (Allocator.malloc_exn ctx.Program.alloc 48)
        done)
  in
  let policy =
    { Supervisor.default_policy with Supervisor.max_retries = 0; rescue = false; diagnose = false }
  in
  let incidents =
    Pool.init ~jobs:2 32 (fun i ->
        Supervisor.run ~policy ~config:(Config.v ~obs:true ())
          (if i mod 2 = 0 then crasher i else clean))
  in
  Array.iteri
    (fun i (incident : Supervisor.incident) ->
      let reasons = List.map (fun r -> r.Dh_obs.Recorder.reason) incident.Supervisor.flight in
      if i mod 2 = 0 then
        Alcotest.(check (list string))
          (Printf.sprintf "crasher %d: its own fault" i)
          [ fault_at (8 * (i + 1)) ]
          reasons
      else Alcotest.(check (list string)) (Printf.sprintf "clean %d: no capture" i) [] reasons)
    incidents

(* Obs-on and obs-off supervised runs interleaved on two domains: run
   [i] has obs on when [i] is even, and crashes (a write to its own
   NULL-guard address at request 150) when [i mod 4] is 2 or 3, so
   both kinds of run overlap both kinds of run.  Each handled request
   bumps the run's own counter and records an instant tagged [i] on its
   space.  An obs-on incident holds exactly its own fault, one latency
   sample per request it handled and, among its events, exactly its
   own tagged instants; an obs-off incident holds no capture, no
   sample and no event. *)
let test_obs_per_space_under_pool () =
  let requests = 200 and crash_at = 150 in
  let service i handled =
    let init ctx =
      let a = ctx.Program.alloc in
      let obs = Mem.recorder a.Allocator.mem in
      let handle k =
        ignore (Allocator.malloc_exn a 48);
        if i mod 4 >= 2 && k = crash_at then Mem.write8 a.Allocator.mem (8 * (i + 1)) 1;
        Dh_obs.Recorder.instant ~arg:i obs "test.request";
        incr handled
      in
      { Program.handle; finish = (fun () -> ()) }
    in
    Program.of_service ~name:"interleaved" { Program.requests; init }
  in
  let policy =
    { Supervisor.default_policy with Supervisor.max_retries = 0; rescue = false; diagnose = false }
  in
  let runs =
    Pool.init ~jobs:2 32 (fun i ->
        let handled = ref 0 in
        let incident =
          Supervisor.run ~policy ~config:(Config.v ~obs:(i mod 2 = 0) ()) (service i handled)
        in
        (incident, !handled))
  in
  Array.iteri
    (fun i ((incident : Supervisor.incident), handled) ->
      let what = Printf.sprintf "run %d (obs %b)" i (i mod 2 = 0) in
      let reasons = List.map (fun r -> r.Dh_obs.Recorder.reason) incident.Supervisor.flight in
      let samples = Dh_obs.Quantile.count incident.Supervisor.latency in
      let tagged =
        List.filter (fun e -> e.Dh_obs.Tracing.name = "test.request") incident.Supervisor.events
      in
      check_int (what ^ ": requests handled")
        (if i mod 4 >= 2 then crash_at else requests)
        handled;
      if i mod 2 = 0 then begin
        Alcotest.(check (list string))
          (what ^ ": its own flight")
          (if i mod 4 >= 2 then [ fault_at (8 * (i + 1)) ] else [])
          reasons;
        check_int (what ^ ": a sample per handled request") handled samples;
        check_int (what ^ ": its own tagged instants") handled (List.length tagged);
        check (what ^ ": no other run's instant") true
          (List.for_all (fun e -> e.Dh_obs.Tracing.arg = string_of_int i) tagged)
      end
      else begin
        Alcotest.(check (list string)) (what ^ ": no flight") [] reasons;
        check_int (what ^ ": no latency") 0 samples;
        check_int (what ^ ": no events") 0 (List.length incident.Supervisor.events)
      end)
    runs

(* Flight recorder captures, audit offender rankings, the serve loop's
   latency samples and trace events are the fields tracing legitimately
   adds (all empty when obs is off), so the fingerprint strips them
   before comparing. *)
let strip i =
  {
    i with
    Supervisor.flight = [];
    offenders = [];
    latency = Dh_obs.Quantile.create ();
    events = [];
  }

(* Telemetry is write-only: a traced run must produce bit-identical
   results to an untraced one. *)
let prop_observation_invariance =
  QCheck.Test.make ~name:"tracing does not perturb seeded runs" ~count:8
    QCheck.(int_bound 1000)
    (fun master ->
      let baseline = supervisor_incident ~obs:false ~master in
      baseline.Supervisor.flight = []
      && baseline.Supervisor.offenders = []
      && Dh_obs.Quantile.count baseline.Supervisor.latency = 0
      && baseline.Supervisor.events = []
      && strip (supervisor_incident ~obs:true ~master) = strip baseline)

(* The same on a realistic workload: the Squid-style server under the
   supervisor, where latency samples, sampled heap trace instants and the
   retry ladder are all live at once. *)
let server_incident ~obs ~master ~attack_every =
  Supervisor.run
    ~config:(Config.v ~heap_size:Dh_workload.Server.heap_size ~obs ())
    ~seed_pool:(Seed.create ~master)
    (Dh_workload.Server.program ~requests:96 ~attack_every ())

let prop_server_observation_invariance =
  QCheck.Test.make
    ~name:"server under supervisor: telemetry on equals telemetry off"
    ~count:6
    QCheck.(pair (int_bound 500) (oneofl [ 0; 7 ]))
    (fun (master, attack_every) ->
      strip (server_incident ~obs:true ~master ~attack_every)
      = server_incident ~obs:false ~master ~attack_every)

let suite =
  [
    Alcotest.test_case "pool: empty" `Quick test_pool_empty;
    Alcotest.test_case "pool: singleton" `Quick test_pool_singleton;
    Alcotest.test_case "pool: jobs > items" `Quick test_pool_jobs_exceed_items;
    Alcotest.test_case "pool: order preserved" `Quick test_pool_preserves_order;
    Alcotest.test_case "pool: exception propagation" `Quick
      test_pool_exception_propagation;
    Alcotest.test_case "pool: rejects jobs < 1" `Quick test_pool_rejects_bad_jobs;
    Alcotest.test_case "pool: defaults" `Quick test_pool_default_jobs;
    Alcotest.test_case "seed: split = fresh draws" `Quick test_seed_split_matches_fresh;
    Alcotest.test_case "seed: split edge cases" `Quick test_seed_split_empty;
    Alcotest.test_case "seed plan: fixed assignment" `Quick
      test_seed_plan_fixed_assignment;
    QCheck_alcotest.to_alcotest prop_replicated_jobs_equivalence;
    Alcotest.test_case "replicated: bench churn jobs equivalence" `Quick
      test_replicated_churn_jobs_equivalence;
    Alcotest.test_case "campaign: jobs equivalence" `Quick
      test_campaign_jobs_equivalence;
    Alcotest.test_case "pool: every fan-out joins its helpers" `Quick
      test_pool_joins_helpers;
    Alcotest.test_case "pool: nested fan-out" `Quick test_pool_nested;
    Alcotest.test_case "supervisor: each run under the pool keeps its flight" `Quick
      test_flight_per_run_under_pool;
    Alcotest.test_case "supervisor: obs-on and obs-off runs interleaved under the pool"
      `Quick test_obs_per_space_under_pool;
    QCheck_alcotest.to_alcotest prop_observation_invariance;
    QCheck_alcotest.to_alcotest prop_server_observation_invariance;
  ]
