(* Survival-rate uplift: the §7.3.1 injection campaigns re-run under the
   survival supervisor.

   For each injected workload the bench plays every trial twice with the
   SAME fault stream and the SAME initial heap seed:

   - bare:       one DieHard run — the paper's stand-alone setting;
   - supervised: the escalation ladder — the same first run, then up to
     [retries] re-executions with fresh seeds on exponentially expanded
     heaps, then a final attempt on the Rescue-wrapped heap.

   Because the supervisor's first attempt reproduces the bare run
   exactly, any difference in the success column is pure recovery: runs
   the ladder saved that a single throw of the dice lost.  Each saved or
   lost incident is printed with the canary module's diagnosis of why
   the first attempt died. *)

module Campaign = Dh_fault.Campaign
module Injector = Dh_fault.Injector
module Trace = Dh_alloc.Trace
module Program = Dh_alloc.Program
module Process = Dh_mem.Process
module Supervisor = Diehard.Supervisor
module Seed = Dh_rng.Seed

let fuel = 50_000_000

(* Fault specs harsher than the paper's, on a heap smaller than the
   default: the bench needs bare DieHard to lose some trials so the
   ladder has something to save.  (A tight heap is also where the
   ladder's heap expansion earns its keep — Theorem 2's masking scales
   with the free pool.) *)
let tight_heap = 12 * 256 * 1024

let harsh_dangling =
  { Injector.paper_dangling with Injector.dangling_rate = 1.0; dangling_distance = 20 }

let harsh_overflow =
  { Injector.paper_overflow with
    Injector.underflow_rate = 0.05;
    underflow_bytes = 16;
    underflow_min_size = 32
  }

let trace program =
  let alloc = Factory.freelist () in
  let tracer, traced = Trace.wrap alloc in
  let result = Program.run ~fuel program traced in
  match result.Process.outcome with
  | Process.Exited 0 -> Ok (Trace.lifetimes tracer, result.Process.output)
  | outcome -> Error outcome

let outcome_cell = function
  | Supervisor.Survived 0 -> "ok first try"
  | Supervisor.Survived n -> Printf.sprintf "saved at attempt %d" n
  | Supervisor.Gave_up -> "gave up"

let workload ~label ~spec ~trials program =
  Report.subheading label;
  match trace program with
  | Error outcome ->
    Report.note "skipped: tracing run %s" (Process.outcome_to_string outcome)
  | Ok (log, reference) ->
    let success (r : Process.result) =
      r.Process.outcome = Process.Exited 0 && String.equal r.Process.output reference
    in
    (* Trials are pure functions of their trial number (per-trial seed
       pools, per-run heaps, shared read-only trace log), so they fan out
       across domains; results are folded in trial order below. *)
    let jobs = Dh_parallel.Pool.default_jobs () in
    let results =
      Array.to_list
      @@ Dh_parallel.Pool.init ~jobs trials (fun i ->
          let trial = i + 1 in
          let spec = { spec with Injector.seed = spec.Injector.seed + trial } in
          let master = (trial * 7919) + 17 in
          let inject _plan alloc = Injector.wrap spec ~log alloc in
          (* bare: one DieHard heap, seed drawn exactly as the supervisor
             draws its first. *)
          let bare_seed = Seed.fresh (Seed.create ~master) in
          let bare_alloc =
            inject ()
              (Diehard.Heap.allocator
                 (Diehard.Heap.create
                    ~config:(Diehard.Config.v ~heap_size:tight_heap ~seed:bare_seed ())
                    (Dh_mem.Mem.create ())))
          in
          let bare = success (Program.run ~fuel program bare_alloc) in
          (* supervised: same first throw, then the ladder. *)
          let incident =
            Supervisor.run
              ~policy:{ Supervisor.default_policy with Supervisor.fuel }
              ~config:(Diehard.Config.v ~heap_size:tight_heap ())
              ~seed_pool:(Seed.create ~master) ~success ~wrap:inject program
          in
          (trial, bare, incident))
    in
    let bare_ok =
      ref (List.length (List.filter (fun (_, bare, _) -> bare) results))
    in
    let sup_ok =
      ref
        (List.length
           (List.filter
              (fun (_, _, (i : Supervisor.incident)) ->
                match i.Supervisor.verdict with
                | Supervisor.Survived _ -> true
                | Supervisor.Gave_up -> false)
              results))
    in
    let incidents =
      ref
        (List.rev
           (List.filter_map
              (fun (trial, _, (i : Supervisor.incident)) ->
                if i.Supervisor.verdict <> Supervisor.Survived 0 then Some (trial, i)
                else None)
              results))
    in
    Report.table
      ~header:[ "runtime"; "success"; "rate" ]
      [
        [
          "bare DieHard (one seed)";
          Printf.sprintf "%d/%d" !bare_ok trials;
          Report.pct (float_of_int !bare_ok /. float_of_int trials);
        ];
        [
          "supervisor (retry+degrade)";
          Printf.sprintf "%d/%d" !sup_ok trials;
          Report.pct (float_of_int !sup_ok /. float_of_int trials);
        ];
      ];
    if !incidents = [] then Report.note "no incidents: every trial survived its first seed"
    else begin
      Report.note "incidents (first attempt died; diagnosis from the canary replay):";
      List.iter
        (fun (trial, (i : Supervisor.incident)) ->
          Report.note "trial %2d: %-19s attempts=%d diagnosis=%s" trial
            (outcome_cell i.Supervisor.verdict)
            (List.length i.Supervisor.attempts)
            (match i.Supervisor.diagnosis with
            | Some d -> Dh_alloc.Canary.diagnosis_to_string d
            | None -> "-"))
        (List.rev !incidents)
    end

let run ~quick () =
  let trials = if quick then 5 else 10 in
  Report.heading
    "Survival supervisor: end-to-end success under injected faults (uplift vs bare DieHard)";
  Report.note
    "same fault stream and same first heap seed in both rows; the supervisor adds";
  Report.note
    "retry-with-reseed (heap factor doubled per retry) and a final rescue attempt";
  workload
    ~label:
      (Printf.sprintf
         "espresso-sim, dangling pointers (every freed object freed 20 early, %d trials)"
         trials)
    ~spec:harsh_dangling ~trials
    (Dh_workload.Apps.espresso ());
  workload
    ~label:
      (Printf.sprintf
         "espresso-sim, buffer overflows (5%% of allocations >= 32B shaved by 16B, %d trials)"
         trials)
    ~spec:harsh_overflow ~trials
    (Dh_workload.Apps.espresso ())
