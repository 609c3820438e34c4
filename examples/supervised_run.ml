(* Walkthrough of the survival supervisor: the escalation ladder that
   turns DieHard's per-seed survival probability into end-to-end
   availability.

     dune exec examples/supervised_run.exe

   Two scenarios:

   1. a healthy program — the supervisor is invisible: one attempt,
      first try, done;
   2. espresso-sim under harsh dangling-pointer injection on a tight
      heap — the first seed usually dies, the supervisor retries with
      fresh seeds on exponentially expanded heaps (and would fall back
      to the Rescue allocator if those died too), and a canary replay of
      the failed run names the fault class for the incident report. *)

module Supervisor = Diehard.Supervisor
module Injector = Dh_fault.Injector
module Trace = Dh_alloc.Trace
module Program = Dh_alloc.Program
module Process = Dh_mem.Process
module Seed = Dh_rng.Seed

let tight_heap = 12 * 256 * 1024

let () =
  print_endline "=== 1. healthy program: the supervisor stays out of the way ===";
  let incident = Supervisor.run (Dh_workload.Apps.cfrac ()) in
  Format.printf "%a\n" Supervisor.pp_incident incident

let () =
  print_endline "=== 2. espresso-sim under dangling-pointer injection ===";
  print_endline "(every freed object freed 20 allocations early, 768KiB heap)";
  print_newline ();
  let program = Dh_workload.Apps.espresso () in
  (* Trace once under the freelist to get the allocation log the
     injector replays, and the reference output that defines success. *)
  let tracer, traced =
    Trace.wrap (Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Dh_mem.Mem.create ())))
  in
  let reference =
    match Program.run program traced with
    | { Process.outcome = Process.Exited 0; output } -> output
    | r -> failwith ("tracing run failed: " ^ Process.outcome_to_string r.Process.outcome)
  in
  let log = Trace.lifetimes tracer in
  let spec =
    { Injector.paper_dangling with Injector.dangling_rate = 1.0; dangling_distance = 20 }
  in
  let incident =
    Supervisor.run
      ~config:(Diehard.Config.v ~heap_size:tight_heap ())
      ~seed_pool:(Seed.create ~master:2026)
      ~success:(fun r ->
        r.Process.outcome = Process.Exited 0 && String.equal r.Process.output reference)
      ~wrap:(fun _plan alloc -> Injector.wrap spec ~log alloc)
      program
  in
  Format.printf "%a\n" Supervisor.pp_incident incident;
  print_endline
    "Every attempt re-injects the same fault stream; only the heap's seed and";
  print_endline
    "expansion factor change.  The paper's replicated mode (Section 5) buys";
  print_endline
    "independence in space (k replicas at once); the supervisor buys the same";
  print_endline
    "independence in time (k attempts in sequence), and the canary replay turns";
  print_endline "the lost first attempt into a diagnosis instead of a core dump."
