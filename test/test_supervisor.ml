(* Tests for the survival supervisor: retry bounds, seed freshness,
   heap-expansion backoff, degradation order, and canary diagnosis. *)

module Supervisor = Diehard.Supervisor
module Process = Dh_mem.Process
module Allocator = Dh_alloc.Allocator
module Program = Dh_alloc.Program
module Pool = Dh_parallel.Pool
module Seed = Dh_rng.Seed

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let healthy =
  Dh_lang.Interp.program_of_source ~name:"healthy"
    {|fn main() { var p = malloc(32); p[0] = 7; print_int(p[0]); }|}

(* Writes through NULL on every allocator: no rung of the ladder can
   save it. *)
let doomed =
  Dh_lang.Interp.program_of_source ~name:"doomed"
    {|fn main() { var p = 0; p[0] = 1; }|}

let policy ?(max_retries = 2) ?(backoff = 2) ?(rescue = true) ?(diagnose = true)
    ?(checkpoint_interval = 0) ?(max_rewinds = 8) () =
  {
    Supervisor.max_retries;
    backoff;
    rescue;
    diagnose;
    fuel = 1_000_000;
    checkpoint_interval;
    max_rewinds;
  }

let run ?policy:(p = policy ()) ?wrap ?success program =
  Supervisor.run ~policy:p ~seed_pool:(Seed.create ~master:7) ?wrap ?success program

(* A malloc that always fails: every store goes through NULL, so the
   attempt crashes — used to sink chosen rungs of the ladder. *)
let sabotage (alloc : Allocator.t) = { alloc with Allocator.malloc = (fun _ -> Allocator.null) }

let modes incident =
  List.map (fun a -> a.Supervisor.plan.Supervisor.mode) incident.Supervisor.attempts

let seeds incident =
  List.map (fun a -> a.Supervisor.plan.Supervisor.seed) incident.Supervisor.attempts

let test_healthy_first_try () =
  let i = run healthy in
  check "survived" true (i.Supervisor.verdict = Supervisor.Survived 0);
  check_int "one attempt" 1 (List.length i.Supervisor.attempts);
  check "no diagnosis for a clean run" true (i.Supervisor.diagnosis = None);
  Alcotest.(check (option string)) "output captured" (Some "7") i.Supervisor.output;
  check "fuel charged" true (i.Supervisor.total_fuel > 0)

let test_retry_count_bounded () =
  let i = run ~policy:(policy ~max_retries:3 ~rescue:true ()) doomed in
  check "gave up" true (i.Supervisor.verdict = Supervisor.Gave_up);
  (* 1 initial + 3 retries + 1 rescue *)
  check_int "ladder length" 5 (List.length i.Supervisor.attempts);
  check "no output" true (i.Supervisor.output = None)

let test_retry_count_without_rescue () =
  let i = run ~policy:(policy ~max_retries:3 ~rescue:false ()) doomed in
  check_int "no rescue rung" 4 (List.length i.Supervisor.attempts);
  check "all randomized" true (List.for_all (( = ) Supervisor.Randomized) (modes i))

let test_zero_retries () =
  let i = run ~policy:(policy ~max_retries:0 ~rescue:false ~diagnose:false ()) doomed in
  check_int "single attempt" 1 (List.length i.Supervisor.attempts)

let test_seed_freshness () =
  let i = run ~policy:(policy ~max_retries:4 ()) doomed in
  let ss = seeds i in
  let distinct = List.sort_uniq compare ss in
  check_int "every attempt used a fresh seed" (List.length ss) (List.length distinct)

let test_backoff_expands_heap () =
  let i = run ~policy:(policy ~max_retries:2 ~backoff:2 ()) doomed in
  let plans = List.map (fun a -> a.Supervisor.plan) i.Supervisor.attempts in
  let ms = List.map (fun p -> p.Supervisor.multiplier) plans in
  let hs = List.map (fun p -> p.Supervisor.heap_size) plans in
  let base_h = Diehard.Config.default.Diehard.Config.heap_size in
  Alcotest.(check (list (float 0.))) "M doubles each rung" [ 2.; 4.; 8.; 16. ] ms;
  Alcotest.(check (list int))
    "heap doubles each rung"
    [ base_h; 2 * base_h; 4 * base_h; 8 * base_h ]
    hs

let test_backoff_one_keeps_heap () =
  let i = run ~policy:(policy ~max_retries:2 ~backoff:1 ()) doomed in
  let ms =
    List.map (fun a -> a.Supervisor.plan.Supervisor.multiplier) i.Supervisor.attempts
  in
  check "M constant with backoff 1" true (List.for_all (( = ) 2.) ms)

let test_degradation_order () =
  (* Sink every randomized rung: survival must come from the rescue rung,
     and only as the final attempt. *)
  let wrap plan alloc =
    match plan.Supervisor.mode with
    | Supervisor.Randomized -> sabotage alloc
    | Supervisor.Rescue -> alloc
  in
  let i = run ~policy:(policy ~max_retries:2 ()) ~wrap healthy in
  check "survived via rescue" true (i.Supervisor.verdict = Supervisor.Survived 3);
  Alcotest.(check (option string)) "rescue run's output" (Some "7") i.Supervisor.output;
  (match List.rev (modes i) with
  | Supervisor.Rescue :: rest ->
    check "rescue only at the end" true (List.for_all (( = ) Supervisor.Randomized) rest)
  | _ -> Alcotest.fail "last attempt was not the rescue rung");
  (* the diagnosis replay saw the sabotaged crash and classified it *)
  check "diagnosed the NULL write" true
    (i.Supervisor.diagnosis = Some Dh_alloc.Canary.Wild_write)

let test_diagnosis_off () =
  let i = run ~policy:(policy ~diagnose:false ()) doomed in
  check "no diagnosis when disabled" true (i.Supervisor.diagnosis = None);
  check "no violations either" true (i.Supervisor.canary_violations = [])

let test_success_predicate () =
  (* With an output-equality predicate, a run that exits 0 with the
     wrong output is retried like a crash. *)
  let i =
    run
      ~policy:(policy ~max_retries:1 ~rescue:false ~diagnose:false ())
      ~success:(fun r -> r.Process.output = "never-this")
      healthy
  in
  check "gave up on wrong output" true (i.Supervisor.verdict = Supervisor.Gave_up);
  check_int "retried" 2 (List.length i.Supervisor.attempts)

let test_invalid_policy_rejected () =
  Alcotest.check_raises "negative retries" (Invalid_argument "Supervisor: max_retries must be >= 0")
    (fun () -> ignore (run ~policy:(policy ~max_retries:(-1) ()) healthy));
  Alcotest.check_raises "zero backoff" (Invalid_argument "Supervisor: backoff must be >= 1")
    (fun () -> ignore (run ~policy:(policy ~backoff:0 ()) healthy))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_incident_report_renders () =
  let i = run ~policy:(policy ~max_retries:1 ()) doomed in
  let s = Format.asprintf "%a" Supervisor.pp_incident i in
  check "names the program" true (contains ~sub:"doomed" s);
  check "shows the verdict" true (contains ~sub:"gave up" s);
  check "shows the rescue rung" true (contains ~sub:"rescue" s);
  check "shows the diagnosis" true (contains ~sub:"wild write" s)

(* Crashes on roughly half the seeds (by object placement), so the
   ladder really retries and the canary diagnosis really replays. *)
let seed_sensitive_crasher =
  Program.make ~name:"seed-crasher" (fun ctx ->
      let a = ctx.Program.alloc in
      let p = Allocator.malloc_exn a 16 in
      if (p lsr 4) land 1 = 0 then ignore (Dh_mem.Mem.read8 a.Allocator.mem 0);
      Process.Out.printf ctx.Program.out "p-parity=%d" ((p lsr 4) land 1))

let crasher_incident ~master =
  Supervisor.run
    ~policy:{ Supervisor.default_policy with Supervisor.fuel = 1_000_000 }
    ~config:(Diehard.Config.v ~heap_size:(12 * 64 * 1024) ())
    ~seed_pool:(Seed.create ~master)
    seed_sensitive_crasher

let test_incidents_deterministic () =
  (* The supervisor is sequential and a function of its master seed: the
     same master twice gives equal incidents, both when the first attempt
     fails (so the retries and the diagnosis replay run) and on a
     first-try success, and no rung starts a domain. *)
  let spawned = Pool.spawned_domains () in
  let rec find what pred master =
    if master > 64 then Alcotest.failf "no %s in 64 masters" what
    else
      let i = crasher_incident ~master in
      if pred i then (master, i) else find what pred (master + 1)
  in
  let master, first =
    find "first-attempt failure"
      (fun i ->
        match i.Supervisor.attempts with a :: _ -> not a.Supervisor.ok | [] -> false)
      1
  in
  check "diagnosis ran" true (first.Supervisor.diagnosis <> None);
  check "failing first attempt: same incident again" true
    (crasher_incident ~master = first);
  let master, first =
    find "first-try success" (fun i -> i.Supervisor.verdict = Supervisor.Survived 0) 1
  in
  check "first-try success: same incident again" true
    (crasher_incident ~master = first);
  check_int "no domain started" spawned (Pool.spawned_domains ())

(* Every rung's heap keeps the caller's heap settings: a checkpointed
   server run under attack with meshing on meshes pages on the attempt
   that survives, and prints what the mesh-off run prints; a replicated
   config's rung random-fills what it allocates. *)
let test_rungs_keep_heap_settings () =
  let serve ~mesh =
    let mems = ref [] in
    let i =
      Supervisor.run
        ~policy:{ Supervisor.default_policy with checkpoint_interval = 256 }
        ~config:
          (Diehard.Config.v ~heap_size:Dh_workload.Server.heap_size ~mesh
             ~mesh_threshold:4096 ())
        ~seed_pool:(Seed.create ~master:1)
        ~wrap:(fun _ a ->
          mems := a.Allocator.mem :: !mems;
          a)
        (Dh_workload.Server.program ~requests:20_000 ~attack_every:97 ())
    in
    match i.Supervisor.verdict with
    | Supervisor.Survived n ->
      (i.Supervisor.output, Dh_mem.Mem.meshed_pages (List.nth (List.rev !mems) n))
    | Supervisor.Gave_up -> Alcotest.fail "the server run gave up"
  in
  let off_output, off_meshed = serve ~mesh:false in
  let on_output, on_meshed = serve ~mesh:true in
  check_int "mesh off meshes nothing" 0 off_meshed;
  check "the surviving attempt meshed pages" true (on_meshed > 0);
  Alcotest.(check (option string)) "same output as mesh off" off_output on_output;
  (* Replicated fill (§5): the attempt's fresh small object holds random
     bytes, not the zeroes of a plain heap. *)
  let fresh_object ~replicated =
    let peek =
      Dh_alloc.Program.make ~name:"peek" (fun ctx ->
          let a = ctx.Dh_alloc.Program.alloc in
          let p = Allocator.malloc_exn a 64 in
          let bits = ref 0 in
          for w = 0 to 7 do
            bits := !bits lor Dh_mem.Mem.read64 a.Allocator.mem (p + (8 * w))
          done;
          Dh_mem.Process.Out.printf ctx.Dh_alloc.Program.out "%s"
            (if !bits = 0 then "zero" else "random"))
    in
    (Supervisor.run
       ~config:(Diehard.Config.v ~replicated ())
       ~seed_pool:(Seed.create ~master:1) peek)
      .Supervisor.output
  in
  Alcotest.(check (option string)) "plain rung: zero-filled" (Some "zero")
    (fresh_object ~replicated:false);
  Alcotest.(check (option string)) "replicated rung: random-filled" (Some "random")
    (fresh_object ~replicated:true)

let suite =
  [
    Alcotest.test_case "healthy first try" `Quick test_healthy_first_try;
    Alcotest.test_case "retry bound (with rescue)" `Quick test_retry_count_bounded;
    Alcotest.test_case "retry bound (no rescue)" `Quick test_retry_count_without_rescue;
    Alcotest.test_case "zero retries" `Quick test_zero_retries;
    Alcotest.test_case "seed freshness" `Quick test_seed_freshness;
    Alcotest.test_case "backoff expands heap" `Quick test_backoff_expands_heap;
    Alcotest.test_case "backoff 1 = same heap" `Quick test_backoff_one_keeps_heap;
    Alcotest.test_case "degradation order" `Quick test_degradation_order;
    Alcotest.test_case "diagnosis off" `Quick test_diagnosis_off;
    Alcotest.test_case "success predicate" `Quick test_success_predicate;
    Alcotest.test_case "invalid policy" `Quick test_invalid_policy_rejected;
    Alcotest.test_case "incident report" `Quick test_incident_report_renders;
    Alcotest.test_case "rungs keep the caller's heap settings" `Quick
      test_rungs_keep_heap_settings;
    Alcotest.test_case "incidents are deterministic and the ladder starts no domain"
      `Quick test_incidents_deterministic;
  ]
