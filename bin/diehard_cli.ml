(* The `diehard` command-line tool: the simulated counterpart of the
   paper's `diehard` launcher (§5), plus utilities.

     diehard run prog.mc --allocator diehard --seed 7
     diehard replicate prog.mc --replicas 3 --input in.txt
     diehard inject prog.mc --mode dangling --trials 10
     diehard check prog.mc
     diehard diagnose lindsay
     diehard trace espresso > log

   Programs are MiniC source files; the names `espresso`, `squid`,
   `lindsay` and `cfrac` refer to the built-in applications. *)

open Cmdliner

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
    "MiniC program: a file path, or a built-in name (espresso, squid, lindsay, \
     cfrac; 'survive' also accepts the native 'server')."
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
  let doc = "DieHard heap size in bytes (twelve regions share it)." in
  Arg.(value & opt int Diehard.Config.default.Diehard.Config.heap_size
       & info [ "heap" ] ~docv:"BYTES" ~doc)

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
  Arg.(value & flag & info [ "bounded-libc" ] ~doc)

let fuel_arg =
  let doc = "Execution step budget (infinite-loop cut-off)." in
  Arg.(value & opt int 100_000_000 & info [ "fuel" ] ~docv:"STEPS" ~doc)

let jobs_arg =
  let doc =
    "Domains used for multi-run fan-out (replica execution, injected trials, \
     diagnosis overlap, scaling sweeps).  Seed planning makes the results \
     identical for every value.  Defaults to this machine's recommended \
     domain count."
  in
  Arg.(value & opt int (Dh_parallel.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let read_input = function
  | None -> ""
  | Some "-" -> In_channel.input_all stdin
  | Some path -> read_file path

(* Observability: every subcommand accepts --trace FILE and --metrics
   FILE.  Either one switches Dh_obs on for the whole process; the dumps
   are written from an at_exit hook because the actions below terminate
   via [exit] on every path. *)

let obs_trace_arg =
  let doc =
    "Record span traces and write them as Chrome trace_event JSON to $(docv) \
     on exit (load it at chrome://tracing or in Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let obs_metrics_arg =
  let doc = "Write the metrics registry as CSV to $(docv) on exit." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let obs_setup trace metrics =
  if trace <> None || metrics <> None then begin
    Dh_obs.Control.set_enabled true;
    at_exit (fun () ->
        (match trace with
        | Some path ->
          Dh_obs.Tracing.write_chrome_json ~path ();
          Printf.eprintf "trace: wrote %s (%d events, %d dropped)\n" path
            (List.length (Dh_obs.Tracing.events ()))
            (Dh_obs.Tracing.dropped ())
        | None -> ());
        match metrics with
        | Some path ->
          Dh_obs.Metrics.write_csv ~path Dh_obs.Metrics.default;
          Printf.eprintf "metrics: wrote %s\n" path
        | None -> ())
  end

let obs_term = Term.(const obs_setup $ obs_trace_arg $ obs_metrics_arg)

let make_allocator ?(mesh = false) ?mesh_threshold kind ~seed ~heap_size =
  let mem = Dh_mem.Mem.create () in
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

let report_result (r : Dh_mem.Process.result) =
  print_string r.Dh_mem.Process.output;
  if r.Dh_mem.Process.output <> "" && not (String.ends_with ~suffix:"\n" r.Dh_mem.Process.output)
  then print_newline ();
  match r.Dh_mem.Process.outcome with
  | Dh_mem.Process.Exited 0 -> 0
  | Dh_mem.Process.Exited n ->
    Printf.eprintf "program exited with code %d\n" n;
    n
  | outcome ->
    Printf.eprintf "%s\n" (Dh_mem.Process.outcome_to_string outcome);
    1

(* --- run --- *)

let run_cmd =
  let action () prog alloc_kind policy seed heap_size mesh mesh_threshold input
      bounded fuel =
    let source = load_source prog in
    let libc = if bounded then Dh_lang.Interp.Bounded else Dh_lang.Interp.Unchecked in
    let program = Dh_lang.Interp.program_of_source ~libc ~name:prog source in
    let alloc = make_allocator ~mesh ~mesh_threshold alloc_kind ~seed ~heap_size in
    let result =
      Dh_alloc.Program.run ~policy_kind:policy ~input:(read_input input) ~fuel program
        alloc
    in
    exit (report_result result)
  in
  let doc = "Run a MiniC program under a chosen memory manager (stand-alone mode)." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const action $ obs_term $ prog_arg $ allocator_arg $ policy_arg $ seed_arg
      $ heap_arg $ mesh_arg $ mesh_threshold_arg $ input_arg $ bounded_arg
      $ fuel_arg)

(* --- replicate --- *)

let replicas_arg =
  let doc = "Number of replicas (1 or >= 3; the voter cannot decide between 2)." in
  Arg.(value & opt int 3 & info [ "n"; "replicas" ] ~docv:"K" ~doc)

let replicate_cmd =
  let action () prog replicas seed heap_size mesh mesh_threshold input fuel jobs =
    let source = load_source prog in
    let program = Dh_lang.Interp.program_of_source ~name:prog source in
    let config = Diehard.Config.v ~heap_size ~jobs ~mesh ~mesh_threshold () in
    let report =
      Diehard.Replicated.run ~config ~replicas
        ~seed_pool:(Dh_rng.Seed.create ~master:seed)
        ~input:(read_input input) ~fuel program
    in
    print_string report.Diehard.Replicated.output;
    Printf.eprintf "verdict: %s (%d barriers)\n"
      (match report.Diehard.Replicated.verdict with
      | Diehard.Replicated.Agreed -> "agreed"
      | Diehard.Replicated.Uninit_read_detected -> "uninitialized read detected"
      | Diehard.Replicated.No_quorum -> "no quorum"
      | Diehard.Replicated.All_died -> "all replicas died")
      report.Diehard.Replicated.barriers;
    List.iter
      (fun r ->
        Printf.eprintf "  replica %d (seed %d): %s%s\n" r.Diehard.Replicated.id
          r.Diehard.Replicated.seed
          (Dh_mem.Process.outcome_to_string r.Diehard.Replicated.outcome)
          (match r.Diehard.Replicated.eliminated with
          | Some (Diehard.Replicated.Voted_out b) ->
            Printf.sprintf " [voted out at barrier %d]" b
          | Some Diehard.Replicated.Died -> " [died]"
          | None -> ""))
      report.Diehard.Replicated.replicas;
    exit (match report.Diehard.Replicated.verdict with Diehard.Replicated.Agreed -> 0 | _ -> 1)
  in
  let doc = "Run a program under the replicated DieHard runtime with output voting (\u{00a7}5)." in
  Cmd.v (Cmd.info "replicate" ~doc)
    Term.(
      const action $ obs_term $ prog_arg $ replicas_arg $ seed_arg $ heap_arg
      $ mesh_arg $ mesh_threshold_arg $ input_arg $ fuel_arg $ jobs_arg)

(* --- inject --- *)

let mode_arg =
  let doc = "Fault type: dangling (50% @ distance 10) or overflow (1%, 4 bytes)." in
  Arg.(required & opt (some (enum [ ("dangling", `Dangling); ("overflow", `Overflow) ])) None
       & info [ "mode" ] ~docv:"MODE" ~doc)

let trials_arg =
  let doc = "Number of injected runs." in
  Arg.(value & opt int 10 & info [ "trials" ] ~docv:"N" ~doc)

let inject_cmd =
  let action () prog mode trials alloc_kind seed heap_size mesh mesh_threshold
      input fuel jobs =
    let source = load_source prog in
    let program = Dh_lang.Interp.program_of_source ~name:prog source in
    let spec =
      match mode with
      | `Dangling -> Dh_fault.Injector.paper_dangling
      | `Overflow -> Dh_fault.Injector.paper_overflow
    in
    match
      Dh_fault.Campaign.run ~input:(read_input input) ~fuel ~jobs ~trials ~spec
        ~make_alloc:(fun ~trial ->
          make_allocator ~mesh ~mesh_threshold alloc_kind ~seed:(seed + trial)
            ~heap_size)
        program
    with
    | Ok tally ->
      Format.printf "%a@." Dh_fault.Campaign.pp_tally tally;
      exit (if tally.Dh_fault.Campaign.correct = trials then 0 else 1)
    | Error e ->
      Printf.eprintf "campaign aborted: %s\n" (Dh_fault.Campaign.error_to_string e);
      exit 2
  in
  let doc = "Run the \u{00a7}7.3.1 fault-injection campaign against a program." in
  Cmd.v (Cmd.info "inject" ~doc)
    Term.(
      const action $ obs_term $ prog_arg $ mode_arg $ trials_arg $ allocator_arg
      $ seed_arg $ heap_arg $ mesh_arg $ mesh_threshold_arg $ input_arg
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

let requests_arg =
  let doc = "Requests the built-in 'server' program handles." in
  Arg.(value & opt int 4096 & info [ "requests" ] ~docv:"N" ~doc)

let attack_every_arg =
  let doc =
    "Make every $(docv)-th request to the built-in 'server' an overlong-URL attack \
     (0 = well-formed traffic only)."
  in
  Arg.(value & opt int 0 & info [ "attack-every" ] ~docv:"N" ~doc)

let survive_cmd =
  let action () prog retries backoff no_rescue no_diagnose checkpoint_interval
      max_rewinds requests attack_every policy_kind seed heap_size mesh
      mesh_threshold input fuel jobs =
    let program, heap_size =
      match prog with
      | "server" ->
        (* The native service-shaped workload; give it its tuned heap
           unless the user sized one explicitly. *)
        ( Dh_workload.Server.program ~requests ~attack_every (),
          if heap_size = Diehard.Config.default.Diehard.Config.heap_size then
            Dh_workload.Server.heap_size
          else heap_size )
      | _ -> (Dh_lang.Interp.program_of_source ~name:prog (load_source prog), heap_size)
    in
    let policy =
      {
        Diehard.Supervisor.max_retries = retries;
        backoff;
        rescue = not no_rescue;
        diagnose = not no_diagnose;
        fuel;
        checkpoint_interval;
        max_rewinds;
      }
    in
    let incident =
      Diehard.Supervisor.run ~policy
        ~config:(Diehard.Config.v ~heap_size ~jobs ~mesh ~mesh_threshold ())
        ~seed_pool:(Dh_rng.Seed.create ~master:seed)
        ~input:(read_input input) ~policy_kind program
    in
    (match incident.Diehard.Supervisor.output with
    | Some out ->
      print_string out;
      if out <> "" && not (String.ends_with ~suffix:"\n" out) then print_newline ()
    | None -> ());
    Format.eprintf "%a@?" Diehard.Supervisor.pp_incident incident;
    (* Exit-code contract (documented in README): 0 = clean survival on a
       randomized DieHard heap; 1 = gave up; 2 = survived only by
       degrading to the rescue allocator — CI can gate on "no rescue". *)
    exit
      (match incident.Diehard.Supervisor.verdict with
      | Diehard.Supervisor.Gave_up -> 1
      | Diehard.Supervisor.Survived _ -> (
        match
          List.find_opt
            (fun a -> a.Diehard.Supervisor.ok)
            incident.Diehard.Supervisor.attempts
        with
        | Some a when a.Diehard.Supervisor.plan.Diehard.Supervisor.mode = Diehard.Supervisor.Rescue -> 2
        | Some _ | None -> 0))
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
      const action $ obs_term $ prog_arg $ retries_arg $ backoff_arg
      $ no_rescue_arg $ no_diagnose_arg $ checkpoint_interval_arg $ rewinds_arg
      $ requests_arg $ attack_every_arg $ policy_arg $ seed_arg $ heap_arg
      $ mesh_arg $ mesh_threshold_arg $ input_arg $ fuel_arg $ jobs_arg)

(* --- check --- *)

let check_cmd =
  let action () prog print =
    let source = load_source prog in
    match Dh_lang.Check.check_source source with
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
    Term.(const action $ obs_term $ prog_arg $ print_arg)

(* --- trace --- *)

let trace_cmd =
  let action () prog alloc_kind seed heap_size input fuel =
    let source = load_source prog in
    let program = Dh_lang.Interp.program_of_source ~name:prog source in
    let alloc = make_allocator alloc_kind ~seed ~heap_size in
    let tracer, traced = Dh_alloc.Trace.wrap alloc in
    let result =
      Dh_alloc.Program.run ~input:(read_input input) ~fuel program traced
    in
    (match result.Dh_mem.Process.outcome with
    | Dh_mem.Process.Exited 0 -> ()
    | outcome ->
      Printf.eprintf "warning: traced run %s\n"
        (Dh_mem.Process.outcome_to_string outcome));
    print_string (Dh_alloc.Trace.lifetimes_to_string (Dh_alloc.Trace.lifetimes tracer));
    exit 0
  in
  let doc =
    "Record the allocation log of a program run (the 7.3.1 tracing step); the \
     lifetime log is written to stdout."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const action $ obs_term $ prog_arg $ allocator_arg $ seed_arg $ heap_arg
      $ input_arg $ fuel_arg)

(* --- diagnose --- *)

let diagnose_cmd =
  let action () prog replicas seed heap_size input fuel =
    let source = load_source prog in
    let program = Dh_lang.Interp.program_of_source ~name:prog source in
    let report =
      Diehard.Diagnose.run
        ~config:(Diehard.Config.v ~heap_size ())
        ~replicas
        ~seed_pool:(Dh_rng.Seed.create ~master:seed)
        ~input:(read_input input) ~fuel program
    in
    Format.printf "%a" Diehard.Diagnose.pp_report report;
    exit (if report.Diehard.Diagnose.suspects = [] then 0 else 1)
  in
  let doc =
    "Diagnose memory errors by differencing replica heaps (the paper's \u{00a7}9 \
     debugging direction)."
  in
  Cmd.v (Cmd.info "diagnose" ~doc)
    Term.(
      const action $ obs_term $ prog_arg $ replicas_arg $ seed_arg $ heap_arg
      $ input_arg $ fuel_arg)

(* --- replay: time-travel through the faulting checkpoint window ---

   The flight recorder tells you WHAT was in flight when a run faulted;
   replay shows you HOW it got there.  The run executes forward under
   copy-on-write checkpoint windows (the supervisor's rewind-rung
   discipline) until the first memory fault; then the window is rewound
   — memory, heap metadata, output — and re-executed one request at a
   time, deliberately WITHOUT reseeding: programs are deterministic
   functions of their input and placements, so the fault reproduces at
   the same step, and every intermediate step can be watched.  Each
   re-executed request is bracketed in a "replay.step" span, so the
   flight record captured at the reproduced fault factors into per-step
   event groups (Dh_obs.Recorder.cursor) printed after the walk. *)

let replay_interval_arg =
  let doc = "Requests per checkpoint window (the granularity replay rewinds to)." in
  Arg.(value & opt int 64 & info [ "checkpoint-interval" ] ~docv:"N" ~doc)

let replay_cmd =
  let action () prog requests attack_every interval seed heap_size input fuel =
    if interval <= 0 then begin
      Printf.eprintf "replay: --checkpoint-interval must be positive\n";
      exit 2
    end;
    let svc, heap_size =
      match prog with
      | "server" ->
        ( Dh_workload.Server.service ~requests ~attack_every (),
          if heap_size = Diehard.Config.default.Diehard.Config.heap_size then
            Dh_workload.Server.heap_size
          else heap_size )
      | name -> (
        let program =
          Dh_lang.Interp.program_of_source ~name (load_source name)
        in
        match program.Dh_alloc.Program.service with
        | Some svc -> (svc, heap_size)
        | None ->
          Printf.eprintf
            "replay: %s is not service-shaped; only step-structured programs \
             (the built-in 'server') can be replayed\n"
            name;
          exit 2)
    in
    (* The step spans and the flight record are the whole point. *)
    Dh_obs.Control.set_enabled true;
    let mem = Dh_mem.Mem.create () in
    let config = Diehard.Config.v ~heap_size ~seed () in
    let heap = Diehard.Heap.create ~config mem in
    let alloc = Diehard.Heap.allocator heap in
    let stats = alloc.Dh_alloc.Allocator.stats in
    let exit_code = ref 0 in
    let result =
      Dh_mem.Process.run (fun out ->
          let ctx =
            {
              Dh_alloc.Program.alloc;
              policy = Dh_alloc.Policy.make alloc;
              input = read_input input;
              out;
              now = 0;
              fuel = Dh_mem.Process.Fuel.create ~budget:fuel;
            }
          in
          let h = svc.Dh_alloc.Program.init ctx in
          (* Phase 1: run forward, window by window, to the first fault. *)
          let k = ref 0 in
          let faulted = ref None in
          let snap = ref (Diehard.Heap.snapshot heap) in
          let out_mark = ref 0 in
          let window_start = ref 0 in
          while !k < svc.Dh_alloc.Program.requests && !faulted = None do
            window_start := !k;
            let window_end =
              min svc.Dh_alloc.Program.requests (!window_start + interval)
            in
            Dh_mem.Mem.checkpoint mem;
            snap := Diehard.Heap.snapshot heap;
            out_mark := Dh_mem.Process.Out.length out;
            (try
               while !k < window_end do
                 h.Dh_alloc.Program.handle !k;
                 incr k
               done
             with Dh_mem.Fault.Error f -> faulted := Some f)
          done;
          match !faulted with
          | None ->
            Dh_mem.Mem.discard_checkpoint mem;
            h.Dh_alloc.Program.finish ();
            Printf.printf
              "no fault in %d requests; nothing to replay (try --attack-every)\n"
              svc.Dh_alloc.Program.requests
          | Some fault ->
            let kf = !k in
            let original =
              let c = Dh_mem.Process.Out.contents out in
              String.sub c !out_mark (String.length c - !out_mark)
            in
            Printf.printf
              "fault at request %d (window %d..%d): %s\nrewinding and replaying \
               the window step by step (same seed: the fault must reproduce)\n"
              kf !window_start
              (min svc.Dh_alloc.Program.requests (!window_start + interval) - 1)
              (Dh_mem.Fault.to_string fault);
            let rewind = Dh_mem.Mem.rewind mem in
            Diehard.Heap.restore heap !snap;
            Dh_mem.Process.Out.truncate out !out_mark;
            Printf.printf "rewound %d pages to the checkpoint at request %d\n\n"
              rewind.Dh_mem.Mem.pages_restored !window_start;
            (* Phase 2: the time-travel walk. *)
            let reproduced = ref None in
            let j = ref !window_start in
            while !reproduced = None && !j <= kf do
              let k = !j in
              Dh_obs.Recorder.set_step k;
              let len0 = Dh_mem.Process.Out.length out in
              let dirty0 = Dh_mem.Mem.dirty_pages mem in
              let m0 = stats.Dh_alloc.Stats.mallocs in
              let f0 = stats.Dh_alloc.Stats.frees in
              let live0 = stats.Dh_alloc.Stats.live_bytes in
              (try
                 Dh_obs.Tracing.span ~arg:(string_of_int k) "replay.step"
                   (fun () -> h.Dh_alloc.Program.handle k)
               with Dh_mem.Fault.Error f -> reproduced := Some f);
              let len1 = Dh_mem.Process.Out.length out in
              let dirty1 = Dh_mem.Mem.dirty_pages mem in
              Printf.printf
                "  step %-7d +%-4d B out  dirty %3d (+%d)  malloc +%d  free +%d  \
                 live %+d B%s\n"
                k (len1 - len0) dirty1 (dirty1 - dirty0)
                (stats.Dh_alloc.Stats.mallocs - m0)
                (stats.Dh_alloc.Stats.frees - f0)
                (stats.Dh_alloc.Stats.live_bytes - live0)
                (match !reproduced with
                | Some f -> "  ** FAULT: " ^ Dh_mem.Fault.to_string f ^ " **"
                | None -> "");
              (if len1 > len0 then
                 let c = Dh_mem.Process.Out.contents out in
                 String.sub c len0 (len1 - len0)
                 |> String.split_on_char '\n'
                 |> List.iter (fun l ->
                        if l <> "" then Printf.printf "      | %s\n" l));
              incr j
            done;
            Dh_obs.Recorder.clear_step ();
            (* The reproduction contract: same fault, same step, and the
               replayed window's output is byte-for-byte the original's. *)
            (match !reproduced with
            | Some f when !j - 1 = kf && Dh_mem.Fault.to_string f = Dh_mem.Fault.to_string fault
              ->
              Printf.printf "\nfault reproduced at step %d\n" kf
            | Some f ->
              Printf.printf
                "\nWARNING: fault diverged on replay (step %d, %s) — determinism \
                 contract broken\n"
                (!j - 1) (Dh_mem.Fault.to_string f);
              exit_code := 1
            | None ->
              Printf.printf
                "\nWARNING: fault did not reproduce on replay — determinism \
                 contract broken\n";
              exit_code := 1);
            let replayed =
              let c = Dh_mem.Process.Out.contents out in
              String.sub c !out_mark (String.length c - !out_mark)
            in
            if replayed = original then
              Printf.printf
                "replay output matches the original byte-for-byte up to the \
                 fault step (%d bytes)\n"
                (String.length replayed)
            else begin
              Printf.printf
                "WARNING: replay output diverged from the original (%d vs %d \
                 bytes)\n"
                (String.length replayed) (String.length original);
              exit_code := 1
            end;
            (* The flight record of the reproduced fault, factored into
               per-step event groups by the cursor. *)
            (match Dh_obs.Recorder.last () with
            | None -> ()
            | Some r ->
              Printf.printf "\nflight record #%d (%s)%s, by step:\n"
                r.Dh_obs.Recorder.seq r.Dh_obs.Recorder.reason
                (match r.Dh_obs.Recorder.step with
                | Some s -> Printf.sprintf " at step %d" s
                | None -> "");
              let c = Dh_obs.Recorder.cursor r in
              let rec walk () =
                match Dh_obs.Recorder.next c with
                | None -> ()
                | Some g ->
                  Printf.printf "  [%s] %d events\n"
                    (if g.Dh_obs.Recorder.step_arg = "" then "preamble"
                     else "step " ^ g.Dh_obs.Recorder.step_arg)
                    (List.length g.Dh_obs.Recorder.step_events);
                  List.iter
                    (fun e ->
                      Format.printf "    %a@." Dh_obs.Tracing.pp_event e)
                    g.Dh_obs.Recorder.step_events;
                  walk ()
              in
              walk ()))
    in
    (match result.Dh_mem.Process.outcome with
    | Dh_mem.Process.Exited 0 -> ()
    | outcome ->
      Printf.eprintf "replay driver %s\n"
        (Dh_mem.Process.outcome_to_string outcome);
      exit_code := 1);
    exit !exit_code
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
      const action $ obs_term $ prog_arg $ requests_arg $ attack_every_arg
      $ replay_interval_arg $ seed_arg $ heap_arg $ input_arg $ fuel_arg)

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
     (request-structured programs such as the built-in 'server'; 0 disables)."
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
  let action () prog format out watch replicas distance seed heap_size requests
      attack_every input fuel =
    if replicas < 1 || replicas = 2 then begin
      Printf.eprintf
        "audit: --replicas must be 1 or >= 3 (the voter cannot break ties)\n";
      exit 2
    end;
    (* Enable obs BEFORE building the heap: Heap.create only registers
       its occupancy provider (the authoritative live/threshold/capacity
       feed) while observability is on. *)
    Dh_obs.Control.set_enabled true;
    Dh_obs.Audit.reset ();
    let margin_now () =
      Dh_analysis.Margin.of_snapshot ~replicas ~dangling_allocations:distance
        (Dh_obs.Audit.snapshot ())
    in
    if watch > 0 then
      Dh_obs.Audit.set_watch ~every:watch ~f:(fun ~now ->
          List.iter
            (fun c ->
              if c.Dh_analysis.Margin.cm_live > 0 then
                Printf.eprintf
                  "audit t=%d class=%d size=%dB live=%d/%d occ=%.3f \
                   P(ovf mask)=%.4f P(dgl mask)=%.4f\n%!"
                  now c.Dh_analysis.Margin.cm_class
                  c.Dh_analysis.Margin.cm_size c.Dh_analysis.Margin.cm_live
                  c.Dh_analysis.Margin.cm_capacity
                  c.Dh_analysis.Margin.cm_occupancy
                  c.Dh_analysis.Margin.cm_overflow_mask
                  c.Dh_analysis.Margin.cm_dangling_mask)
            (margin_now ()).Dh_analysis.Margin.classes);
    let mem = Dh_mem.Mem.create () in
    let result =
      match prog with
      | "server" ->
        (* Drive the service loop request by request so --watch ticks. *)
        let heap_size =
          if heap_size = Diehard.Config.default.Diehard.Config.heap_size then
            Dh_workload.Server.heap_size
          else heap_size
        in
        let svc = Dh_workload.Server.service ~requests ~attack_every () in
        let config = Diehard.Config.v ~heap_size ~seed () in
        let alloc = Diehard.Heap.allocator (Diehard.Heap.create ~config mem) in
        Dh_mem.Process.run (fun out ->
            let ctx =
              {
                Dh_alloc.Program.alloc;
                policy = Dh_alloc.Policy.make alloc;
                input = read_input input;
                out;
                now = 0;
                fuel = Dh_mem.Process.Fuel.create ~budget:fuel;
              }
            in
            let h = svc.Dh_alloc.Program.init ctx in
            for k = 0 to svc.Dh_alloc.Program.requests - 1 do
              h.Dh_alloc.Program.handle k;
              Dh_obs.Audit.tick ~now:k
            done;
            h.Dh_alloc.Program.finish ())
      | _ ->
        if watch > 0 then
          Printf.eprintf
            "audit: --watch needs a request-structured program; %s runs \
             without periodic snapshots\n"
            prog;
        let program =
          Dh_lang.Interp.program_of_source ~name:prog (load_source prog)
        in
        let config = Diehard.Config.v ~heap_size ~seed () in
        let alloc = Diehard.Heap.allocator (Diehard.Heap.create ~config mem) in
        Dh_alloc.Program.run ~input:(read_input input) ~fuel program alloc
    in
    let report = margin_now () in
    let text =
      match format with
      | `Human -> Format.asprintf "%a" Dh_analysis.Margin.pp report
      | `Json -> Dh_analysis.Margin.to_json report ^ "\n"
      | `Csv -> Dh_analysis.Margin.to_csv report
    in
    (match out with
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.eprintf "audit: wrote %s\n" path
    | None -> print_string text);
    exit
      (match result.Dh_mem.Process.outcome with
      | Dh_mem.Process.Exited 0 -> 0
      | outcome ->
        Printf.eprintf "audit: program %s\n"
          (Dh_mem.Process.outcome_to_string outcome);
        1)
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
      const action $ obs_term $ prog_arg $ audit_format_arg $ audit_out_arg
      $ audit_watch_arg $ audit_replicas_arg $ audit_distance_arg $ seed_arg
      $ heap_arg $ requests_arg $ attack_every_arg $ input_arg $ fuel_arg)

(* --- obs: inspect a recorded trace --- *)

(* The sample count a histogram row's "buckets=b1:n1;b4:n4" detail adds
   up to; [None] when the detail is malformed. *)
let detail_bucket_total detail =
  let tag = "buckets=" in
  match List.rev (String.split_on_char ' ' detail) with
  | last :: _ when String.starts_with ~prefix:tag last ->
    let tag_len = String.length tag in
    let counts = String.sub last tag_len (String.length last - tag_len) in
    if counts = "" then Some 0
    else
      List.fold_left
        (fun acc bucket ->
          match (acc, String.split_on_char ':' bucket) with
          | Some acc, [ _; n ] -> Option.map (( + ) acc) (int_of_string_opt n)
          | _ -> None)
        (Some 0)
        (String.split_on_char ';' counts)
  | _ -> None

(* Validate a --metrics CSV dump: the fixed header, six fields per row,
   and the quantile columns — integers for histograms, empty for
   counters and gauges — and each histogram's log2 bucket counts adding
   up to its sample count.  Exits nonzero on any violation. *)
let validate_metrics_csv path =
  let contents =
    try read_file path
    with Sys_error e ->
      Printf.eprintf "%s\n" e;
      exit 2
  in
  let lines =
    String.split_on_char '\n' contents |> List.filter (fun l -> l <> "")
  in
  (match lines with
  | header :: _ when header = "name,kind,value,p50,p99,detail" -> ()
  | header :: _ ->
    Printf.eprintf "%s: unexpected CSV header %S\n" path header;
    exit 1
  | [] ->
    Printf.eprintf "%s: empty metrics CSV\n" path;
    exit 1);
  let histograms = ref 0 and rows = ref 0 in
  List.iteri
    (fun i line ->
      if i > 0 then begin
        incr rows;
        match String.split_on_char ',' line with
        | [ name; kind; value; p50; p99; detail ] ->
          let quantiles_ok =
            match kind with
            | "histogram" ->
              incr histograms;
              (* Histograms always carry both quantile summaries, in
                 order, and their log2 view accounts for every sample. *)
              (match (int_of_string_opt p50, int_of_string_opt p99) with
              | Some lo, Some hi -> lo <= hi
              | _ -> false)
              && detail_bucket_total detail = int_of_string_opt value
            | "counter" | "gauge" -> p50 = "" && p99 = ""
            | _ -> false
          in
          if int_of_string_opt value = None || not quantiles_ok then begin
            Printf.eprintf "%s: malformed row for %s (line %d): %s\n" path name
              (i + 1) line;
            exit 1
          end
        | _ ->
          Printf.eprintf "%s: row with wrong field count (line %d): %s\n" path
            (i + 1) line;
          exit 1
      end)
    lines;
  Printf.printf "%s: %d metric rows, %d histograms with p50/p99 summaries\n" path
    !rows !histograms

let obs_cmd =
  let action file expect metrics_csv =
    Option.iter validate_metrics_csv metrics_csv;
    let contents =
      try read_file file
      with Sys_error e ->
        Printf.eprintf "%s\n" e;
        exit 2
    in
    match Dh_obs.Json.parse contents with
    | Error e ->
      Printf.eprintf "%s: not valid JSON: %s\n" file e;
      exit 1
    | Ok json -> (
      match Dh_obs.Json.member "traceEvents" json with
      | Some (Dh_obs.Json.List events) ->
        let by_name : (string, int) Hashtbl.t = Hashtbl.create 64 in
        let bad = ref 0 in
        List.iter
          (fun ev ->
            match
              ( Option.bind (Dh_obs.Json.member "name" ev) Dh_obs.Json.string_value,
                Option.bind (Dh_obs.Json.member "ph" ev) Dh_obs.Json.string_value,
                Dh_obs.Json.member "ts" ev )
            with
            | Some name, Some ("B" | "E" | "i"), Some (Dh_obs.Json.Number _) ->
              Hashtbl.replace by_name name
                (1 + Option.value ~default:0 (Hashtbl.find_opt by_name name))
            | _ -> incr bad)
          events;
        if !bad > 0 then begin
          Printf.eprintf "%s: %d malformed trace events\n" file !bad;
          exit 1
        end;
        Printf.printf "%s: %d events, %d distinct names\n" file (List.length events)
          (Hashtbl.length by_name);
        List.iter
          (fun (name, count) -> Printf.printf "  %-28s %d\n" name count)
          (List.sort compare
             (Hashtbl.fold (fun name count acc -> (name, count) :: acc) by_name []));
        let missing = List.filter (fun n -> not (Hashtbl.mem by_name n)) expect in
        if missing <> [] then begin
          Printf.eprintf "%s: missing expected event names: %s\n" file
            (String.concat ", " missing);
          exit 1
        end;
        exit 0
      | _ ->
        Printf.eprintf "%s: no traceEvents array\n" file;
        exit 1)
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
      "Also validate a --metrics CSV dump: header, per-row field shape, \
       the p50/p99 quantile columns (integers on histogram rows, empty \
       otherwise), and histogram bucket counts summing to the row's value."
    in
    Arg.(value & opt (some string) None & info [ "metrics-csv" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Inspect recorded observability output: validate that a trace file parses \
     as Chrome trace_event JSON, summarize event counts per name, optionally \
     check expected names are present, and optionally validate a metrics CSV \
     dump including its quantile columns."
  in
  Cmd.v (Cmd.info "obs" ~doc)
    Term.(const action $ file_arg $ expect_arg $ metrics_csv_arg)

let main_cmd =
  let doc = "DieHard (PLDI 2006) reproduction: probabilistic memory safety, simulated" in
  let info = Cmd.info "diehard" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ run_cmd; replicate_cmd; survive_cmd; replay_cmd; inject_cmd; check_cmd;
      diagnose_cmd; trace_cmd; audit_cmd; obs_cmd ]

let () = exit (Cmd.eval' main_cmd)
