(* The `diehard` command-line tool: the simulated counterpart of the
   paper's `diehard` launcher (§5), plus utilities.

     diehard run prog.mc --allocator diehard --seed 7
     diehard replicate prog.mc --replicas 3 --input in.txt
     diehard inject prog.mc --mode dangling --trials 10
     diehard survive server --attack-every 97 --checkpoint-interval 256
     diehard replay server --attack-every 1000 --checkpoint-interval 1024
     diehard audit cfrac --format json
     diehard check prog.mc
     diehard diagnose lindsay
     diehard trace espresso > log

   Programs are MiniC source files; the names `espresso`, `squid`,
   `lindsay` and `cfrac` refer to the built-in applications, and `server`
   to the native service-shaped workload.  The tool parses flags, calls
   the library and prints; malformed input exits 2 with a `diehard:`
   message. *)

open Cmdliner
module Process = Dh_mem.Process
module Supervisor = Diehard.Supervisor
module Replicated = Diehard.Replicated
module Margin = Dh_analysis.Margin
module Json = Dh_obs.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_source name =
  match name with
  | "espresso" -> Dh_workload.Apps.espresso_source
  | "squid" -> Dh_workload.Apps.squid_source
  | "lindsay" -> Dh_workload.Apps.lindsay_source
  | "cfrac" -> Dh_workload.Apps.cfrac_source
  | path -> read_file path

(* --- shared arguments --- *)

let prog_arg =
  let doc =
    "The program: a MiniC file path, a built-in MiniC application (espresso, \
     squid, lindsay, cfrac), or 'server', the native service-shaped workload \
     (sized by --requests and --attack-every)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let allocator_arg =
  let doc =
    "Memory manager: diehard, adaptive (grow-on-demand DieHard), libc (Lea-style \
     freelist), libc-win, or gc."
  in
  Arg.(value & opt (enum [ ("diehard", `Diehard); ("adaptive", `Adaptive); ("libc", `Libc); ("libc-win", `Libc_win); ("gc", `Gc) ]) `Diehard
       & info [ "a"; "allocator" ] ~docv:"ALLOC" ~doc)

let policy_arg =
  let doc = "Access policy: raw (C semantics), failstop (CCured-style), oblivious." in
  Arg.(value & opt (enum [ ("raw", Dh_alloc.Policy.Raw); ("failstop", Dh_alloc.Policy.Fail_stop); ("oblivious", Dh_alloc.Policy.Oblivious) ]) Dh_alloc.Policy.Raw
       & info [ "policy" ] ~docv:"POLICY" ~doc)

let seed_arg =
  let doc = "Random seed for the DieHard heap." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let heap_arg =
  let doc =
    "DieHard heap size in bytes (twelve regions share it).  Defaults to the \
     program's own: 24 MiB for MiniC programs, 768 KiB for 'server'."
  in
  Arg.(value & opt (some int) None & info [ "heap" ] ~docv:"BYTES" ~doc)

let input_arg =
  let doc = "Standard input for the program: a file path, or '-' for the tool's stdin." in
  Arg.(value & opt (some string) None & info [ "input" ] ~docv:"FILE" ~doc)

let mesh_arg =
  let doc =
    "Enable MESH-style page meshing on DieHard heaps: pages of a size class \
     whose live slots are disjoint share one backing page, roughly halving the \
     resident set without moving objects or changing placement randomness."
  in
  Arg.(value & flag & info [ "mesh" ] ~doc)

let mesh_threshold_arg =
  let doc = "Freed bytes between automatic mesh passes (with --mesh)." in
  Arg.(value
       & opt int Diehard.Config.default.Diehard.Config.mesh_threshold
       & info [ "mesh-threshold" ] ~docv:"BYTES" ~doc)

let bounded_arg =
  let doc = "Enable DieHard's bounded libc replacements (strcpy/strncpy/memcpy, \u{00a7}4.4)." in
  Arg.(value
       & vflag Dh_lang.Interp.Unchecked [ (Dh_lang.Interp.Bounded, info [ "bounded-libc" ] ~doc) ])

let fuel_arg =
  let doc = "Execution step budget (infinite-loop cut-off)." in
  Arg.(value & opt int 100_000_000 & info [ "fuel" ] ~docv:"STEPS" ~doc)

let jobs_arg =
  let doc =
    "Domains used for multi-run fan-out (replica execution, injected trials).  \
     Seed planning makes the results identical for every value.  Defaults to \
     this machine's recommended domain count."
  in
  Arg.(value & opt int (Dh_parallel.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let read_input = function
  | None -> ""
  | Some "-" -> In_channel.input_all stdin
  | Some path -> read_file path

let requests_arg =
  let doc = "Requests the built-in 'server' program handles." in
  Arg.(value & opt int 4096 & info [ "requests" ] ~docv:"N" ~doc)

let attack_every_arg =
  let doc =
    "Make every $(docv)-th request to the built-in 'server' an overlong-URL attack \
     (0 = well-formed traffic only)."
  in
  Arg.(value & opt int 0 & info [ "attack-every" ] ~docv:"N" ~doc)

(* PROGRAM, resolved once for every run-style subcommand, together with
   the heap it runs on: --heap when given, else the program's default.
   The native 'server' calls Mem directly, so no access policy or libc
   can mediate it: asking for one is a usage error, not a silent
   no-op. *)
let load libc policy prog requests attack_every heap =
  let program, default_heap =
    match prog with
    | "server" ->
      if policy <> Dh_alloc.Policy.Raw || libc <> Dh_lang.Interp.Unchecked then
        invalid_arg
          "--policy and --bounded-libc apply to MiniC programs; 'server' is native code";
      (Dh_workload.Server.program ~requests ~attack_every (), Dh_workload.Server.heap_size)
    | name ->
      ( Dh_lang.Interp.program_of_source ~libc ~name (load_source name),
        Diehard.Config.default.Diehard.Config.heap_size )
  in
  (program, Option.value heap ~default:default_heap)

let program_term ?(libc = Term.const Dh_lang.Interp.Unchecked)
    ?(policy = Term.const Dh_alloc.Policy.Raw) () =
  Term.(const load $ libc $ policy $ prog_arg $ requests_arg $ attack_every_arg $ heap_arg)

(* Observability: every subcommand that runs a program accepts --trace
   FILE, which builds the run's address spaces with Dh_obs on; the
   action writes the events its run returned before it exits.  `survive`
   also takes --metrics FILE (see there). *)

let trace_arg =
  let doc =
    "Record span traces of the run and write them as Chrome trace_event JSON \
     to $(docv) (load it at chrome://tracing or in Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let write_trace trace events =
  Option.iter
    (fun path ->
      Dh_obs.Tracing.write_chrome_json ~path events;
      Printf.eprintf "trace: wrote %s (%d events)\n" path (List.length events))
    trace

(* [run ()] on [alloc], then the trace of the allocator's address space,
   also when the run raises (a MiniC runtime error is a usage error). *)
let traced_run trace (alloc : Dh_alloc.Allocator.t) run =
  Fun.protect
    ~finally:(fun () ->
      write_trace trace (Dh_obs.Recorder.events (Dh_mem.Mem.recorder alloc.mem)))
    run

let make_allocator ?(mesh = false) ?mesh_threshold ~obs kind ~seed ~heap_size =
  let mem = Dh_mem.Mem.create ~obs () in
  match kind with
  | `Diehard ->
    let config = Diehard.Config.v ~heap_size ~seed ~mesh ?mesh_threshold () in
    Diehard.Heap.allocator (Diehard.Heap.create ~config mem)
  | `Adaptive -> Diehard.Adaptive.allocator (Diehard.Adaptive.create ~seed mem)
  | `Libc -> Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create mem)
  | `Libc_win ->
    Dh_alloc.Freelist.allocator
      (Dh_alloc.Freelist.create ~variant:Dh_alloc.Freelist.Windows mem)
  | `Gc -> Dh_alloc.Gc.allocator (Dh_alloc.Gc.create mem)

let print_output out =
  print_string out;
  if out <> "" && not (String.ends_with ~suffix:"\n" out) then print_newline ()

let report_result (r : Process.result) =
  print_output r.output;
  match r.outcome with
  | Exited 0 -> 0
  | Exited n ->
    Printf.eprintf "program exited with code %d\n" n;
    n
  | outcome ->
    Printf.eprintf "%s\n" (Process.outcome_to_string outcome);
    1

(* --- run --- *)

let run_cmd =
  let action trace (program, heap_size) alloc_kind policy seed mesh mesh_threshold input
      fuel =
    let alloc =
      make_allocator ~mesh ~mesh_threshold ~obs:(trace <> None) alloc_kind ~seed ~heap_size
    in
    let result =
      traced_run trace alloc (fun () ->
          Dh_alloc.Program.run ~policy_kind:policy ~input:(read_input input) ~fuel program
            alloc)
    in
    exit (report_result result)
  in
  let doc = "Run a MiniC program under a chosen memory manager (stand-alone mode)." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const action $ trace_arg $ program_term ~libc:bounded_arg ~policy:policy_arg ()
      $ allocator_arg
      $ policy_arg $ seed_arg $ mesh_arg $ mesh_threshold_arg $ input_arg $ fuel_arg)

(* --- replicate --- *)

let replicas_arg =
  let doc = "Number of replicas (1 or >= 3; the voter cannot decide between 2)." in
  Arg.(value & opt int 3 & info [ "n"; "replicas" ] ~docv:"K" ~doc)

let replicate_cmd =
  let action trace (program, heap_size) replicas seed mesh mesh_threshold input fuel jobs =
    let config =
      Diehard.Config.v ~heap_size ~jobs ~mesh ~mesh_threshold ~obs:(trace <> None) ()
    in
    let (report : Replicated.report) =
      Replicated.run ~config ~replicas ~seed_pool:(Dh_rng.Seed.create ~master:seed)
        ~input:(read_input input) ~fuel program
    in
    print_string report.output;
    Printf.eprintf "verdict: %s (%d barriers)\n"
      (match report.verdict with
      | Agreed -> "agreed"
      | Uninit_read_detected -> "uninitialized read detected"
      | No_quorum -> "no quorum"
      | All_died -> "all replicas died")
      report.barriers;
    List.iter
      (fun (r : Replicated.replica_report) ->
        Printf.eprintf "  replica %d (seed %d): %s%s\n" r.id r.seed
          (Process.outcome_to_string r.outcome)
          (match r.eliminated with
          | Some (Voted_out b) -> Printf.sprintf " [voted out at barrier %d]" b
          | Some Died -> " [died]"
          | None -> ""))
      report.replicas;
    write_trace trace report.events;
    exit (if report.verdict = Agreed then 0 else 1)
  in
  let doc = "Run a program under the replicated DieHard runtime with output voting (\u{00a7}5)." in
  Cmd.v (Cmd.info "replicate" ~doc)
    Term.(
      const action $ trace_arg $ program_term () $ replicas_arg $ seed_arg $ mesh_arg
      $ mesh_threshold_arg $ input_arg $ fuel_arg $ jobs_arg)

(* --- inject --- *)

let mode_arg =
  let doc = "Fault type: dangling (50% @ distance 10) or overflow (1%, 4 bytes)." in
  Arg.(required & opt (some (enum [ ("dangling", `Dangling); ("overflow", `Overflow) ])) None
       & info [ "mode" ] ~docv:"MODE" ~doc)

let trials_arg =
  let doc = "Number of injected runs." in
  Arg.(value & opt int 10 & info [ "trials" ] ~docv:"N" ~doc)

let inject_cmd =
  let action trace (program, heap_size) mode trials alloc_kind seed mesh mesh_threshold
      input fuel jobs =
    let spec =
      match mode with
      | `Dangling -> Dh_fault.Injector.paper_dangling
      | `Overflow -> Dh_fault.Injector.paper_overflow
    in
    match
      Dh_fault.Campaign.run ~input:(read_input input) ~fuel ~jobs ~trials ~spec
        ~make_alloc:(fun ~trial ->
          make_allocator ~mesh ~mesh_threshold ~obs:(trace <> None) alloc_kind
            ~seed:(seed + trial) ~heap_size)
        program
    with
    | Ok tally ->
      Format.printf "%a@." Dh_fault.Campaign.pp_tally tally;
      write_trace trace tally.events;
      exit (if tally.Dh_fault.Campaign.correct = trials then 0 else 1)
    | Error e ->
      Printf.eprintf "campaign aborted: %s\n" (Dh_fault.Campaign.error_to_string e);
      exit 2
  in
  let doc = "Run the \u{00a7}7.3.1 fault-injection campaign against a program." in
  Cmd.v (Cmd.info "inject" ~doc)
    Term.(
      const action $ trace_arg $ program_term () $ mode_arg $ trials_arg
      $ allocator_arg $ seed_arg $ mesh_arg $ mesh_threshold_arg $ input_arg
      $ fuel_arg $ jobs_arg)

(* --- survive --- *)

let retries_arg =
  let doc = "Randomized retries (fresh seed, expanded heap) after the first attempt." in
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N" ~doc)

let backoff_arg =
  let doc = "Heap-expansion factor applied to M and the heap size on each retry." in
  Arg.(value & opt int 2 & info [ "backoff" ] ~docv:"B" ~doc)

let no_rescue_arg =
  let doc = "Do not degrade to the rescue allocator when retries are exhausted." in
  Arg.(value & flag & info [ "no-rescue" ] ~doc)

let no_diagnose_arg =
  let doc = "Skip the canary-instrumented diagnosis replay of the first failure." in
  Arg.(value & flag & info [ "no-diagnose" ] ~doc)

let checkpoint_interval_arg =
  let doc =
    "Arm a copy-on-write checkpoint every $(docv) requests and recover faults by \
     rewinding to it (service-shaped programs such as the built-in 'server' only; \
     0 disables the rewind rung)."
  in
  Arg.(value & opt int 0 & info [ "checkpoint-interval" ] ~docv:"N" ~doc)

let rewinds_arg =
  let doc = "Rewind budget per attempt before escalating to retry-with-reseed." in
  Arg.(value & opt int 8 & info [ "rewinds" ] ~docv:"N" ~doc)

let metrics_arg =
  let doc =
    "Switch observability on and write the run's serve-loop latency histogram as CSV \
     to $(docv): a name,count,p50,p99,max,sum header, then one serve.latency_ns row \
     for a service-shaped program."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let survive_cmd =
  let action trace (program, heap_size) retries backoff no_rescue no_diagnose
      checkpoint_interval max_rewinds policy_kind seed mesh mesh_threshold input fuel
      metrics =
    let policy =
      {
        Supervisor.max_retries = retries;
        backoff;
        rescue = not no_rescue;
        diagnose = not no_diagnose;
        fuel;
        checkpoint_interval;
        max_rewinds;
      }
    in
    let incident =
      Supervisor.run ~policy
        ~config:
          (Diehard.Config.v ~heap_size ~mesh ~mesh_threshold
             ~obs:(trace <> None || metrics <> None)
             ())
        ~seed_pool:(Dh_rng.Seed.create ~master:seed)
        ~input:(read_input input) ~policy_kind program
    in
    Option.iter print_output incident.output;
    Format.eprintf "%a@?" Supervisor.pp_incident incident;
    Option.iter
      (fun path ->
        let serve = Option.map (fun _ -> ("serve.latency_ns", incident.latency)) program.service in
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Dh_obs.Quantile.to_csv (Option.to_list serve)));
        Printf.eprintf "metrics: wrote %s\n" path)
      metrics;
    write_trace trace incident.events;
    (* Exit-code contract (documented in README): 0 = clean survival on a
       randomized DieHard heap; 1 = gave up; 2 = survived only by
       degrading to the rescue allocator — CI can gate on "no rescue". *)
    exit
      (match incident.verdict with
      | Gave_up -> 1
      | Survived n -> if (List.nth incident.attempts n).plan.mode = Rescue then 2 else 0)
  in
  let doc =
    "Run a program under the survival supervisor: recover faults by rewinding to \
     copy-on-write checkpoints (--checkpoint-interval), retry crashes with fresh \
     seeds and an expanding heap, degrade to the rescue allocator, and diagnose \
     the fault with canaries.  Exits 0 on clean randomized survival, 1 when every \
     rung died, 2 when only the degraded rescue rung survived."
  in
  Cmd.v (Cmd.info "survive" ~doc)
    Term.(
      const action $ trace_arg $ program_term ~policy:policy_arg () $ retries_arg $ backoff_arg
      $ no_rescue_arg $ no_diagnose_arg $ checkpoint_interval_arg $ rewinds_arg
      $ policy_arg $ seed_arg $ mesh_arg $ mesh_threshold_arg $ input_arg $ fuel_arg
      $ metrics_arg)

(* --- check --- *)

let check_cmd =
  let action prog print =
    let source = load_source prog in
    match Dh_lang.Interp.check_source source with
    | Ok ast ->
      if print then print_string (Dh_lang.Ast.to_string ast)
      else Printf.printf "%s: OK\n" prog;
      exit 0
    | Error diagnostics ->
      List.iter (fun d -> Printf.eprintf "%s: %s\n" prog d) diagnostics;
      exit 1
  in
  let print_arg =
    let doc = "Pretty-print the parsed program instead of just reporting OK." in
    Arg.(value & flag & info [ "print" ] ~doc)
  in
  let doc = "Statically check a MiniC program (syntax, scoping, arity)." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const action $ prog_arg $ print_arg)

(* --- trace --- *)

let trace_cmd =
  let action trace (program, heap_size) alloc_kind seed input fuel =
    let alloc = make_allocator ~obs:(trace <> None) alloc_kind ~seed ~heap_size in
    let tracer, traced = Dh_alloc.Trace.wrap alloc in
    let result =
      traced_run trace alloc (fun () ->
          Dh_alloc.Program.run ~input:(read_input input) ~fuel program traced)
    in
    if result.outcome <> Exited 0 then
      Printf.eprintf "warning: traced run %s\n" (Process.outcome_to_string result.outcome);
    print_string (Dh_alloc.Trace.lifetimes_to_string (Dh_alloc.Trace.lifetimes tracer));
    exit 0
  in
  let doc =
    "Record the allocation log of a program run (the 7.3.1 tracing step); the \
     lifetime log is written to stdout."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const action $ trace_arg $ program_term () $ allocator_arg $ seed_arg
      $ input_arg $ fuel_arg)

(* --- diagnose --- *)

let diagnose_cmd =
  let action trace (program, heap_size) replicas seed input fuel =
    let report =
      Diehard.Diagnose.run
        ~config:(Diehard.Config.v ~heap_size ~obs:(trace <> None) ())
        ~replicas
        ~seed_pool:(Dh_rng.Seed.create ~master:seed)
        ~input:(read_input input) ~fuel program
    in
    Format.printf "%a" Diehard.Diagnose.pp_report report;
    write_trace trace report.events;
    exit (if report.Diehard.Diagnose.suspects = [] then 0 else 1)
  in
  let doc =
    "Diagnose memory errors by differencing replica heaps (the paper's \u{00a7}9 \
     debugging direction)."
  in
  Cmd.v (Cmd.info "diagnose" ~doc)
    Term.(
      const action $ trace_arg $ program_term () $ replicas_arg $ seed_arg $ input_arg
      $ fuel_arg)

(* --- replay: time-travel through the faulting checkpoint window ---

   Diehard.Supervisor.replay runs the program to its first fault under
   the rewind rung's checkpoint windows, rewinds that window without
   reseeding and re-executes it one request at a time; this prints its
   report: the per-step heap and output deltas, the reproduction verdict
   and the fault's flight record grouped by step. *)

let replay_interval_arg =
  let doc = "Requests per checkpoint window (the granularity replay rewinds to)." in
  Arg.(value & opt int 64 & info [ "checkpoint-interval" ] ~docv:"N" ~doc)

let print_replay_fault (f : Supervisor.replay_fault) =
  let fault = Dh_mem.Fault.to_string in
  Printf.printf
    "fault at request %d (window %d..%d): %s\nrewinding and replaying the window \
     step by step (same seed: the fault must reproduce)\n"
    f.at (fst f.window) (snd f.window) (fault f.fault);
  Printf.printf "rewound %d pages to the checkpoint at request %d\n\n" f.pages_restored
    (fst f.window);
  List.iter
    (fun (s : Supervisor.replay_step) ->
      Printf.printf
        "  step %-7d +%-4d B out  dirty %3d (+%d)  malloc +%d  free +%d  live %+d B%s\n"
        s.step (String.length s.step_output) s.dirty_pages s.dirtied s.mallocs s.frees
        s.live_bytes
        (match s.step_fault with Some e -> "  ** FAULT: " ^ fault e ^ " **" | None -> "");
      String.split_on_char '\n' s.step_output
      |> List.iter (fun l -> if l <> "" then Printf.printf "      | %s\n" l))
    f.steps;
  (match f.reproduction with
  | Reproduced -> Printf.printf "\nfault reproduced at step %d\n" f.at
  | Diverged (step, e) ->
    Printf.printf
      "\nWARNING: fault diverged on replay (step %d, %s) — determinism contract broken\n"
      step (fault e)
  | Vanished ->
    Printf.printf
      "\nWARNING: fault did not reproduce on replay — determinism contract broken\n");
  if f.output_matches then
    Printf.printf
      "replay output matches the original byte-for-byte up to the fault step (%d bytes)\n"
      f.replayed_bytes
  else
    Printf.printf "WARNING: replay output diverged from the original (%d vs %d bytes)\n"
      f.replayed_bytes f.original_bytes;
  Option.iter
    (fun (r : Dh_obs.Recorder.report) ->
      Printf.printf "\nflight record (%s)%s, by step:\n" r.reason
        (match r.step with Some s -> Printf.sprintf " at step %d" s | None -> "");
      List.iter
        (fun (g : Dh_obs.Recorder.step_group) ->
          Printf.printf "  [%s] %d events\n"
            (if g.step_arg = "" then "preamble" else "step " ^ g.step_arg)
            (List.length g.step_events);
          List.iter (Format.printf "    %a@." Dh_obs.Tracing.pp_event) g.step_events)
        (Dh_obs.Recorder.step_groups r))
    f.flight

let replay_cmd =
  let action trace ((program : Dh_alloc.Program.t), heap_size) interval seed input fuel =
    let svc =
      match program.service with
      | Some svc -> svc
      | None ->
        invalid_arg
          (program.name
         ^ " is not service-shaped; only step-structured programs (the built-in \
            'server') can be replayed")
    in
    let r =
      Supervisor.replay ~input:(read_input input) ~fuel
        ~config:(Diehard.Config.v ~heap_size ~seed ()) ~interval svc
    in
    let reproduced =
      match r.first_fault with
      | None ->
        Printf.printf "no fault in %d requests; nothing to replay (try --attack-every)\n"
          svc.requests;
        true
      | Some f ->
        print_replay_fault f;
        f.reproduction = Reproduced && f.output_matches
    in
    if r.outcome <> Exited 0 then
      Printf.eprintf "replay: program %s\n" (Process.outcome_to_string r.outcome);
    write_trace trace r.events;
    exit (if reproduced && r.outcome = Exited 0 then 0 else 1)
  in
  let doc =
    "Time-travel replay of the first faulting checkpoint window: run a \
     service-shaped program forward under copy-on-write checkpoints to the \
     first memory fault, rewind, and re-execute the window one request at a \
     time — same seed, so the fault reproduces — printing per-step heap and \
     output deltas and the flight recorder's per-step trace events."
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const action $ trace_arg $ program_term () $ replay_interval_arg $ seed_arg
      $ input_arg $ fuel_arg)

(* --- audit: the live safety-margin report ---

   Runs a program on a DieHard heap with the audit instrumentation
   switched on, then evaluates the paper's closed-form guarantees
   against the heap's actual occupancy (Dh_analysis.Margin): per-class
   overflow/dangling masking bounds at the observed fullness, the
   slot-choice entropy behind the uniformity assumption, and the top
   offending allocation sites.  The report is the product; the
   program's own output is discarded (use `run` for that). *)

let audit_format_arg =
  let doc = "Report format: human, json, or csv." in
  Arg.(value
       & opt (enum [ ("human", `Human); ("json", `Json); ("csv", `Csv) ]) `Human
       & info [ "format" ] ~docv:"FMT" ~doc)

let audit_out_arg =
  let doc = "Write the report to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let audit_watch_arg =
  let doc =
    "Print a compact audit snapshot to stderr every $(docv) requests \
     (service-shaped programs such as the built-in 'server'; 0 disables)."
  in
  Arg.(value & opt int 0 & info [ "watch" ] ~docv:"N" ~doc)

let audit_replicas_arg =
  let doc = "Replica count the analytic bounds assume (1 or >= 3)." in
  Arg.(value & opt int 1 & info [ "n"; "replicas" ] ~docv:"K" ~doc)

let audit_distance_arg =
  let doc =
    "Intervening allocations A for the Theorem 2 dangling-masking bound."
  in
  Arg.(value & opt int 10 & info [ "dangling-distance" ] ~docv:"A" ~doc)

let audit_cmd =
  let action trace ((program : Dh_alloc.Program.t), heap_size) format out watch replicas
      distance seed input fuel =
    if replicas < 1 || replicas = 2 then
      invalid_arg "audit: --replicas must be 1 or >= 3 (the voter cannot break ties)";
    if watch < 0 then invalid_arg "audit: --watch must be >= 0";
    let heap =
      Diehard.Heap.create
        ~config:(Diehard.Config.v ~heap_size ~seed ())
        (Dh_mem.Mem.create ~obs:true ())
    in
    let margin_now () = Margin.of_heap ~replicas ~dangling_allocations:distance heap in
    (* --watch: a snapshot after request k, for every k > 0 that is a
       multiple of N; the clock is the request index, so the snapshots
       are deterministic per run. *)
    let watched now =
      List.iter
        (fun (c : Margin.class_margin) ->
          if c.cm_live > 0 then
            Printf.eprintf
              "audit t=%d class=%d size=%dB live=%d/%d occ=%.3f \
               P(ovf mask)=%.4f P(dgl mask)=%.4f\n%!"
              now c.cm_class c.cm_size c.cm_live c.cm_capacity c.cm_occupancy
              c.cm_overflow_mask c.cm_dangling_mask)
        (margin_now ()).classes
    in
    let program =
      match program.service with
      | Some svc when watch > 0 ->
        let init ctx =
          let h = svc.init ctx in
          let handle k =
            h.handle k;
            if k > 0 && k mod watch = 0 then watched k
          in
          { h with handle }
        in
        Dh_alloc.Program.of_service ~name:program.name { svc with init }
      | None when watch > 0 ->
        Printf.eprintf
          "audit: --watch needs a request-structured program; %s runs without \
           periodic snapshots\n"
          program.name;
        program
      | _ -> program
    in
    let result =
      let alloc = Diehard.Heap.allocator heap in
      traced_run trace alloc (fun () ->
          Dh_alloc.Program.run ~input:(read_input input) ~fuel program alloc)
    in
    let report = margin_now () in
    let text =
      match format with
      | `Human -> Format.asprintf "%a" Margin.pp report
      | `Json -> Margin.to_json report ^ "\n"
      | `Csv -> Margin.to_csv report
    in
    (match out with
    | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      Printf.eprintf "audit: wrote %s\n" path
    | None -> print_string text);
    if result.outcome <> Exited 0 then
      Printf.eprintf "audit: program %s\n" (Process.outcome_to_string result.outcome);
    exit (if result.outcome = Exited 0 then 0 else 1)
  in
  let doc =
    "Run a program on an audited DieHard heap and report the live safety \
     margin: per-size-class occupancy against the 1/M threshold, Theorem 1/2 \
     masking bounds at the observed fullness, slot-choice entropy vs the \
     uniform ideal, empirical masking rates, and the top offending \
     allocation sites.  --watch N prints periodic snapshots while a \
     service-shaped program runs."
  in
  Cmd.v (Cmd.info "audit" ~doc)
    Term.(
      const action $ trace_arg $ program_term () $ audit_format_arg $ audit_out_arg
      $ audit_watch_arg $ audit_replicas_arg $ audit_distance_arg $ seed_arg
      $ input_arg $ fuel_arg)

(* --- obs: inspect a recorded trace --- *)

(* A failed validation: the reason on stderr, exit 1. *)
let invalid fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

(* Validate a --metrics CSV dump: the fixed header, and on every row a
   name and five integers with p50 <= p99 <= max.  Exits nonzero on any
   violation. *)
let validate_metrics_csv path =
  let lines =
    String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")
  in
  let rows =
    match lines with
    | header :: rows when header = "name,count,p50,p99,max,sum" -> rows
    | header :: _ -> invalid "%s: unexpected CSV header %S" path header
    | [] -> invalid "%s: empty metrics CSV" path
  in
  List.iteri
    (fun i line ->
      match String.split_on_char ',' line with
      | name :: cells when List.length cells = 5 -> (
        match List.map int_of_string_opt cells with
        | [ Some _; Some p50; Some p99; Some max; Some _ ] when p50 <= p99 && p99 <= max -> ()
        | _ -> invalid "%s: malformed row for %s (line %d): %s" path name (i + 2) line)
      | _ -> invalid "%s: row with wrong field count (line %d): %s" path (i + 2) line)
    rows;
  Printf.printf "%s: %d histograms with p50 <= p99 <= max\n" path (List.length rows)

let obs_cmd =
  let action file expect metrics_csv =
    Option.iter validate_metrics_csv metrics_csv;
    match Json.parse (read_file file) with
    | Error e -> invalid "%s: not valid JSON: %s" file e
    | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List events) ->
        let by_name : (string, int) Hashtbl.t = Hashtbl.create 64 in
        let bad = ref 0 in
        List.iter
          (fun ev ->
            match
              ( Option.bind (Json.member "name" ev) Json.string_value,
                Option.bind (Json.member "ph" ev) Json.string_value,
                Json.member "ts" ev )
            with
            | Some name, Some ("B" | "E" | "i"), Some (Json.Number _) ->
              Hashtbl.replace by_name name
                (1 + Option.value ~default:0 (Hashtbl.find_opt by_name name))
            | _ -> incr bad)
          events;
        if !bad > 0 then invalid "%s: %d malformed trace events" file !bad;
        Printf.printf "%s: %d events, %d distinct names\n" file (List.length events)
          (Hashtbl.length by_name);
        List.iter
          (fun (name, count) -> Printf.printf "  %-28s %d\n" name count)
          (List.sort compare
             (Hashtbl.fold (fun name count acc -> (name, count) :: acc) by_name []));
        let missing = List.filter (fun n -> not (Hashtbl.mem by_name n)) expect in
        if missing <> [] then
          invalid "%s: missing expected event names: %s" file (String.concat ", " missing);
        exit 0
      | _ -> invalid "%s: no traceEvents array" file)
  in
  let file_arg =
    let doc = "Chrome trace_event JSON file written by --trace." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let expect_arg =
    let doc =
      "Comma-separated event names that must appear in the trace; exit nonzero \
       if any is absent (CI uses this to validate coverage)."
    in
    Arg.(value & opt (list string) [] & info [ "expect" ] ~docv:"NAMES" ~doc)
  in
  let metrics_csv_arg =
    let doc =
      "Also validate a --metrics CSV dump: its header, and on every row a \
       name and five integers with p50 <= p99 <= max."
    in
    Arg.(value & opt (some string) None & info [ "metrics-csv" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Inspect recorded observability output: validate that a trace file parses \
     as Chrome trace_event JSON, summarize event counts per name, optionally \
     check expected names are present, and optionally validate a --metrics \
     CSV of latency histograms."
  in
  Cmd.v (Cmd.info "obs" ~doc)
    Term.(const action $ file_arg $ expect_arg $ metrics_csv_arg)

let main_cmd =
  let doc = "DieHard (PLDI 2006) reproduction: probabilistic memory safety, simulated" in
  let info = Cmd.info "diehard" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ run_cmd; replicate_cmd; survive_cmd; replay_cmd; inject_cmd; check_cmd;
      diagnose_cmd; trace_cmd; audit_cmd; obs_cmd ]

(* Malformed input — a bad flag value a library rejects, a missing file,
   MiniC that does not parse, a MiniC runtime error (an unknown name, a
   wrong arity or no main, raised when execution reaches it) — is a
   usage error: one line, exit 2.  A division by zero is none of these:
   it crashes the simulated process.  Anything else is a bug, reported
   as cmdliner would (exit 125). *)
let () =
  let usage_error msg =
    Printf.eprintf "diehard: %s\n" msg;
    exit 2
  in
  match Cmd.eval' ~catch:false main_cmd with
  | code -> exit code
  | exception (Invalid_argument msg | Sys_error msg | Dh_lang.Interp.Runtime_error msg) ->
    usage_error msg
  | exception (Dh_lang.Lexer.Lex_error (msg, line, col) | Dh_lang.Parser.Syntax_error (msg, line, col)) ->
    usage_error (Printf.sprintf "%d:%d: %s" line col msg)
  | exception e ->
    Printf.eprintf "diehard: internal error, uncaught exception:\n         %s\n"
      (Printexc.to_string e);
    exit 125
