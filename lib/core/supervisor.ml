module Process = Dh_mem.Process
module Program = Dh_alloc.Program
module Policy = Dh_alloc.Policy
module Canary = Dh_alloc.Canary
module Seed = Dh_rng.Seed

type policy = {
  max_retries : int;
  backoff : int;
  rescue : bool;
  diagnose : bool;
  fuel : int;
  checkpoint_interval : int;
  max_rewinds : int;
}

let default_policy =
  {
    max_retries = 3;
    backoff = 2;
    rescue = true;
    diagnose = true;
    fuel = 50_000_000;
    checkpoint_interval = 0;
    max_rewinds = 8;
  }

type mode = Randomized | Rescue

type plan = {
  attempt : int;
  seed : int;
  multiplier : float;
  heap_size : int;
  mode : mode;
}

type recovery = {
  checkpoints : int;
  rewinds : int;
  pages_restored : int;
  preimaged_pages : int;
}

type attempt_report = {
  plan : plan;
  outcome : Process.outcome;
  ok : bool;
  fuel_burned : int;
  recovery : recovery option;
}

type verdict = Survived of int | Gave_up

type incident = {
  program : string;
  verdict : verdict;
  attempts : attempt_report list;
  diagnosis : Canary.diagnosis option;
  canary_violations : Canary.violation list;
  output : string option;
  total_fuel : int;
  flight : Dh_obs.Recorder.report list;
  offenders : Dh_obs.Audit.site_stat list;
  latency : Dh_obs.Quantile.t;
}

(* Growth ceilings: the ladder expands the heap exponentially, so a long
   retry budget must not ask the simulated address space for the moon. *)
let max_multiplier = 64.
let max_heap = 512 lsl 20

let pow base n =
  let rec go acc n = if n <= 0 then acc else go (acc * base) (n - 1) in
  go 1 n

let plan_for ~(config : Config.t) ~backoff ~seed ~mode attempt =
  let growth = pow backoff attempt in
  {
    attempt;
    seed;
    multiplier =
      Float.min (config.Config.multiplier *. float_of_int growth) max_multiplier;
    heap_size = min (config.Config.heap_size * growth) max_heap;
    mode;
  }

(* The rung's heap: the plan's seed, M and size, and the caller's
   other heap settings (replicated fill, meshing). *)
let build_heap ~(config : Config.t) plan =
  let mem = Dh_mem.Mem.create () in
  let config =
    Config.v ~multiplier:plan.multiplier ~heap_size:plan.heap_size ~seed:plan.seed
      ~replicated:config.replicated ~mesh:config.mesh ~mesh_threshold:config.mesh_threshold
      ()
  in
  let heap = Heap.create ~config mem in
  let base = Heap.allocator heap in
  let alloc =
    match plan.mode with
    | Randomized -> base
    | Rescue -> Dh_alloc.Rescue.wrap base
  in
  (heap, alloc)

(* --- the checkpoint-window loop ---

   Runs a service window by window: arm a copy-on-write checkpoint
   every [interval] requests, and on a memory fault ask the caller what
   to do.  The fault may escape; or the loop rewinds the address space,
   the heap metadata and the output to the window's checkpoint and then
   either reseeds the allocator and re-runs the window (the rewind rung,
   one below retry-with-reseed: fresh placements for the replayed window
   — the paper's independence argument applied in time), or re-runs it
   one request at a time up to the faulting one without reseeding and
   stops (time-travel replay, {!replay}).

   Requires the step-structured [Program.service] shape: [handle k] keeps
   all its mutable state in simulated memory, so memory + heap-metadata
   restoration IS resumption.  Fuel is deliberately not rewound — the
   replayed work really happened, and a fault that recurs forever
   converges to [Out_of_fuel] rather than looping. *)

type window_fault = {
  raised : Dh_mem.Fault.t;
  request : int;  (* the request that raised it *)
  window_start : int;
  rewinds_taken : int;  (* rewinds already taken in this run *)
  out : Process.Out.t;
  out_mark : int;  (* output length at the window's checkpoint *)
}

type fault_action =
  | Escape  (* let the fault leave the loop *)
  | Reseed of int  (* rewind, reseed the heap, re-run the window *)
  | Step_through of (int -> (unit -> unit) -> bool)
      (* rewind, then run requests window_start .. request one by one
         through the wrapper (which answers "continue?"), and stop *)

(* Serve-loop telemetry (the serve bench reads its SLO off the latency
   histogram).  All write-only and gated on one enabled check per
   request when off; when on, the per-request cost is one clock read and
   one latency sample recorded into the run's own [latency] histogram
   (plain adds), and the request index advertised as the step of the
   address space's own flight recorder.  A request's latency runs from
   the previous request's completion (or from the moment its window was
   armed) to its own: the clock is read once per request, and arming
   stays out of the sample.
   A rewind emits a "supervisor.rewind" instant; the only rewind count
   is the recovery report's.  A [latency] histogram switches this
   telemetry on (when obs is); replay and the canary diagnosis replay
   pass none, so the histogram and the flight records hold only the
   supervised attempts' own requests.  An [interval] of 0 arms no
   checkpoint: the requests run as one window and a fault escapes, as
   it would from [main]. *)
let run_service ~latency ~context (svc : Program.service) heap ~interval ~on_fault =
  let mem = Heap.mem heap in
  let recorder = Dh_mem.Mem.recorder mem in
  let armed = interval > 0 in
  let checkpoints = ref 0 and rewinds = ref 0 and pages_restored = ref 0 in
  let result =
    Process.run (fun out ->
        let h = svc.Program.init (context out) in
        let latency = if Dh_obs.Control.enabled () then latency else None in
        let stamp = ref 0 in
        let handle k =
          match latency with
          | None -> h.Program.handle k
          | Some l ->
            Dh_obs.Recorder.set_step recorder k;
            h.Program.handle k;
            let now = Dh_obs.Tracing.now_ns () in
            let dt = Dh_obs.Tracing.elapsed_ns ~since:!stamp ~now in
            stamp := now;
            Dh_obs.Quantile.record l dt
        in
        let k = ref 0 and stopped = ref false in
        while !k < svc.Program.requests && not !stopped do
          let window_start = !k in
          let window_end =
            if armed then min svc.Program.requests (window_start + interval)
            else svc.Program.requests
          in
          if armed then Dh_mem.Mem.checkpoint mem;
          let snap = if armed then Some (Heap.snapshot heap) else None in
          let out_mark = Process.Out.length out in
          if armed then incr checkpoints;
          if Option.is_some latency then stamp := Dh_obs.Tracing.now_ns ();
          try
            while !k < window_end do
              handle !k;
              incr k
            done
          with Dh_mem.Fault.Error raised as e when armed -> (
            let request = !k in
            let rewind () =
              let report = Dh_mem.Mem.rewind mem in
              Heap.restore heap (Option.get snap);
              Process.Out.truncate out out_mark;
              pages_restored := !pages_restored + report.Dh_mem.Mem.pages_restored;
              incr rewinds;
              if Option.is_some latency then
                Dh_obs.Tracing.instant
                  ~arg:(string_of_int report.Dh_mem.Mem.pages_restored)
                  "supervisor.rewind";
              k := window_start
            in
            match
              on_fault
                { raised; request; window_start; rewinds_taken = !rewinds; out; out_mark }
            with
            | Escape -> raise e
            | Reseed seed ->
              rewind ();
              Heap.reseed heap ~seed
            | Step_through step ->
              rewind ();
              let rec walk j =
                if j <= request && step j (fun () -> h.Program.handle j) then walk (j + 1)
              in
              walk window_start;
              stopped := true)
        done;
        if not !stopped then begin
          if armed then Dh_mem.Mem.discard_checkpoint mem;
          h.Program.finish ()
        end)
  in
  (* Also after a fault escaped: no step stays advertised. *)
  if Option.is_some latency then Dh_obs.Recorder.clear_step recorder;
  ( result,
    if not armed then None
    else
      Some
        {
          checkpoints = !checkpoints;
          rewinds = !rewinds;
          pages_restored = !pages_restored;
          preimaged_pages = Dh_mem.Mem.preimaged_pages mem;
        } )

(* Like {!Program.run}, but with our own fuel cell so the incident can
   charge each attempt for the steps it actually burned.  A
   service-shaped program runs through the serve loop above, so its
   requests feed the latency histogram whether or not checkpoints are
   armed; with them ([interval > 0]) the recovery counters are reported
   even if the attempt ultimately dies. *)
let execute ~latency ~heap ~interval ~on_fault ~policy_kind ~input ~fuel program alloc =
  let cell = Process.Fuel.create ~budget:fuel in
  let context = Program.context ~policy_kind ~input ~fuel:cell alloc in
  let result, recovery =
    match program.Program.service with
    | Some svc -> run_service ~latency ~context svc heap ~interval ~on_fault
    | None -> (Process.run (fun out -> program.Program.main (context out)), None)
  in
  (result, fuel - Option.get (Process.Fuel.remaining cell), recovery)

(* An incident's top offending sites: the allocation and free tallies of
   the ladder attempts' heaps, and each site's attributed canary hits and
   faults.  The canary replay's heap is left out: it re-runs a failed
   attempt and would count it twice.  The rescue rung degrades every
   allocation; when it ran, the degradation is charged to the sites
   diagnosis blamed for forcing it. *)
let offenders audits ~canary_sites ~fault_sites ~rescued =
  let count id sites = List.length (List.filter (( = ) id) sites) in
  let flows = (Dh_obs.Audit.snapshot audits).sites in
  let flow id =
    match List.find_opt (fun (s : Dh_obs.Audit.site_stat) -> s.site_id = id) flows with
    | Some s -> s
    | None ->
      {
        Dh_obs.Audit.site_id = id;
        name = Dh_obs.Audit.site_name id;
        s_allocs = 0;
        s_frees = 0;
        canaries = 0;
        faults = 0;
        rescues = 0;
      }
  in
  List.map (fun (s : Dh_obs.Audit.site_stat) -> s.site_id) flows @ canary_sites @ fault_sites
  |> List.sort_uniq compare
  |> List.map (fun id ->
         let canaries = count id canary_sites and faults = count id fault_sites in
         let rescues = if rescued && canaries + faults > 0 then 1 else 0 in
         { (flow id) with canaries; faults; rescues })
  |> Dh_obs.Audit.top_sites

let run ?(policy = default_policy) ?(config = Config.default)
    ?(seed_pool = Seed.create ~master:config.Config.seed) ?(input = "")
    ?(policy_kind = Policy.Raw) ?(success = fun r -> r.Process.outcome = Process.Exited 0)
    ?(wrap = fun _plan alloc -> alloc) program =
  if policy.max_retries < 0 then invalid_arg "Supervisor: max_retries must be >= 0";
  if policy.backoff < 1 then invalid_arg "Supervisor: backoff must be >= 1";
  if policy.checkpoint_interval < 0 then
    invalid_arg "Supervisor: checkpoint_interval must be >= 0";
  if policy.max_rewinds < 0 then invalid_arg "Supervisor: max_rewinds must be >= 0";
  (* Honor the config's obs knob for the duration of this run (telemetry
     is write-only, so it adds only [flight], [offenders] and
     [latency] to the incident). *)
  Dh_obs.Control.with_enabled (config.Config.obs || Dh_obs.Control.enabled ()) @@ fun () ->
  (* The ladder attempts' audits, and the flight recorders of the
     address spaces the run builds (the canary replay's too), newest
     first. *)
  let audits = ref [] and recorders = ref [] and latency = Dh_obs.Quantile.create () in
  let record_space heap = recorders := Dh_mem.Mem.recorder (Heap.mem heap) :: !recorders in
  let attempt_under plan =
    Dh_obs.Tracing.span ~arg:(string_of_int plan.attempt) "supervisor.attempt"
    @@ fun () ->
    let heap, base_alloc = build_heap ~config plan in
    audits := Heap.audit heap :: !audits;
    record_space heap;
    let alloc = wrap plan base_alloc in
    (* The rewind rung applies to randomized attempts of service-shaped
       programs; the rescue rung stays from-scratch (its wrapper defers
       frees in OCaml state the rewind layer cannot restore). *)
    let interval = if plan.mode = Randomized then policy.checkpoint_interval else 0 in
    (* Reseeds are derived from the attempt's seed, not drawn from the
       pool: the ladder's seed assignment stays frozen up front. *)
    let on_fault f =
      if f.rewinds_taken >= policy.max_rewinds then Escape
      else Reseed (plan.seed lxor ((f.rewinds_taken + 1) * 0x9E3779B9))
    in
    let result, fuel_burned, recovery =
      execute ~latency:(Some latency) ~heap ~interval ~on_fault ~policy_kind ~input
        ~fuel:policy.fuel program alloc
    in
    let ok = success result in
    (* A memory fault has already been captured at raise time by [Mem],
       with its address space's counters; failures without one (abort,
       arithmetic trap, fuel exhaustion, bad exit code) are captured
       here, with the attempt's heap counters, so every failed rung
       leaves a flight record in its own address space. *)
    (if (not ok) && Dh_obs.Control.enabled () then
       match result.Process.outcome with
       | Process.Crashed f when Dh_mem.Fault.is_memory f -> ()
       | outcome ->
         Dh_obs.Recorder.trigger
           ~sections:
             [
               {
                 Dh_obs.Recorder.title = "heap stats";
                 body = Format.asprintf "%a\n" Dh_alloc.Stats.pp (Heap.stats heap);
               };
             ]
           ~reason:
             (Format.asprintf "supervisor attempt %d failed: %a" plan.attempt
                Process.pp_outcome outcome)
           (Dh_mem.Mem.recorder (Heap.mem heap)));
    ({ plan; outcome = result.Process.outcome; ok; fuel_burned; recovery }, result)
  in
  (* Replay the failed attempt — same seed, same heap shape, same wrap —
     under canary instrumentation, purely to classify the fault. *)
  let diagnose_replay (failed : attempt_report) =
    Dh_obs.Tracing.span ~arg:(string_of_int failed.plan.attempt) "supervisor.diagnose"
    @@ fun () ->
    let plan = { failed.plan with mode = Randomized } in
    (* Meshing stays off: a meshed page's free slots address its
       buddy's bytes, so the canaries written into freed slots would
       read as overwritten after a mesh pass. *)
    let replay_heap, base = build_heap ~config:{ config with mesh = false } plan in
    record_space replay_heap;
    let canary, instrumented = Canary.wrap base in
    let result, fuel_burned, _ =
      execute ~latency:None ~heap:replay_heap ~interval:0
        ~on_fault:(fun _ -> Escape)
        ~policy_kind ~input ~fuel:policy.fuel program (wrap plan instrumented)
    in
    Canary.sweep canary;
    let fault =
      match (result.Process.outcome, failed.outcome) with
      | Process.Crashed f, _ -> Some f
      | _, Process.Crashed f -> Some f
      | _ -> None
    in
    let violations = Canary.violations canary in
    (* Provenance: the replay runs the failed attempt's exact seed and
       heap shape, so its addresses coincide with the failed run's —
       each violation resolves to the site that allocated those bytes,
       and the fault's own address to the object it hit or ran off the
       end of.  Best-effort, write-only. *)
    let canary_sites, fault_sites =
      if not (Dh_obs.Control.enabled ()) then ([], [])
      else begin
        ( List.map
            (fun (v : Canary.violation) ->
              Option.value (Heap.site_of_addr replay_heap v.Canary.addr)
                ~default:Dh_obs.Audit.unknown)
            violations,
          match fault with
          | Some f when Dh_mem.Fault.is_memory f ->
            Option.to_list (Heap.fault_site replay_heap (Dh_mem.Fault.addr f))
          | _ -> [] )
      end
    in
    (Canary.diagnose ?fault canary, violations, fuel_burned, canary_sites, fault_sites)
  in
  (* The whole ladder's seeds are frozen up front (attempts 0 through
     max_retries + 1, the last being the rescue rung): seed assignment
     never depends on how far the ladder climbs.  [split] returns exactly
     the draws the old one-[fresh]-per-rung code made, so incidents are
     unchanged. *)
  let seeds = Seed.split ~n:(policy.max_retries + 2) seed_pool in
  let rec ladder attempt acc =
    let mode = if attempt <= policy.max_retries then Randomized else Rescue in
    let plan =
      plan_for ~config ~backoff:policy.backoff ~seed:seeds.(attempt) ~mode attempt
    in
    let report, result = attempt_under plan in
    let acc = report :: acc in
    if report.ok then (List.rev acc, Survived attempt, Some result.Process.output)
    else if mode = Rescue || ((not policy.rescue) && attempt >= policy.max_retries)
    then (List.rev acc, Gave_up, None)
    else ladder (attempt + 1) acc
  in
  let attempts, verdict, output = ladder 0 [] in
  let first = List.hd attempts in
  let diagnosis, canary_violations, diag_fuel, canary_sites, fault_sites =
    if first.ok || not policy.diagnose then (None, [], 0, [], [])
    else
      let d, v, f, canary_sites, fault_sites = diagnose_replay first in
      (Some d, v, f, canary_sites, fault_sites)
  in
  {
    program = program.Program.name;
    verdict;
    attempts;
    diagnosis;
    canary_violations;
    output;
    total_fuel = List.fold_left (fun acc a -> acc + a.fuel_burned) diag_fuel attempts;
    (* The captures of the run's own address spaces, in the order they
       were built, newest [max_reports] kept; [] when disabled, so
       incidents compare equal across runs that never enabled obs. *)
    flight =
      (let all = List.concat_map Dh_obs.Recorder.reports (List.rev !recorders) in
       let extra = List.length all - Dh_obs.Recorder.max_reports in
       List.filteri (fun i _ -> i >= extra) all);
    (* Same contract as [flight]: [] when disabled, so incidents from
       un-instrumented runs compare structurally equal. *)
    offenders =
      (if Dh_obs.Control.enabled () then
         offenders !audits ~canary_sites ~fault_sites
           ~rescued:(List.exists (fun a -> a.plan.mode = Rescue) attempts)
       else []);
    latency;
  }

(* --- time-travel replay ---

   The flight recorder tells you WHAT was in flight when a run faulted;
   replay shows you HOW it got there.  The run executes forward under the
   checkpoint-window loop until the first memory fault; then the window
   is rewound — memory, heap metadata, output — and re-executed one
   request at a time, deliberately WITHOUT reseeding: programs are
   deterministic functions of their input and placements, so the fault
   reproduces at the same step, and every intermediate step can be
   watched.  Each re-executed request is bracketed in a "replay.step"
   span, so the flight record captured at the reproduced fault factors
   into per-step event groups ({!Dh_obs.Recorder.step_groups}). *)

type replay_step = {
  step : int;
  step_output : string;
  dirty_pages : int;
  dirtied : int;
  mallocs : int;
  frees : int;
  live_bytes : int;
  step_fault : Dh_mem.Fault.t option;
}

type reproduction = Reproduced | Diverged of int * Dh_mem.Fault.t | Vanished

type replay_fault = {
  fault : Dh_mem.Fault.t;
  at : int;
  window : int * int;
  pages_restored : int;
  steps : replay_step list;
  reproduction : reproduction;
  original_bytes : int;
  replayed_bytes : int;
  output_matches : bool;
  flight : Dh_obs.Recorder.report option;
}

type replay = { first_fault : replay_fault option; outcome : Process.outcome }

let replay ?(input = "") ?(fuel = 100_000_000) ~config ~interval (svc : Program.service) =
  if interval <= 0 then invalid_arg "Supervisor.replay: checkpoint interval must be positive";
  (* The step spans and the flight record are the whole point, so obs
     is on for the whole replay. *)
  Dh_obs.Control.with_enabled true @@ fun () ->
  let heap = Heap.create ~config (Dh_mem.Mem.create ()) in
  let alloc = Heap.allocator heap and stats = Heap.stats heap in
  let recorder = Dh_mem.Mem.recorder alloc.mem in
  let since out mark =
    let len = Process.Out.length out in
    if len = mark then "" else String.sub (Process.Out.contents out) mark (len - mark)
  in
  let first = ref None and steps = ref [] in
  let step out j run =
    Dh_obs.Recorder.set_step recorder j;
    let len0 = Process.Out.length out and dirty0 = Dh_mem.Mem.dirty_pages alloc.mem in
    let m0 = stats.mallocs and f0 = stats.frees and live0 = stats.live_bytes in
    let step_fault =
      match Dh_obs.Tracing.span ~arg:(string_of_int j) "replay.step" run with
      | () -> None
      | exception Dh_mem.Fault.Error f -> Some f
    in
    let dirty = Dh_mem.Mem.dirty_pages alloc.mem in
    steps :=
      {
        step = j;
        step_output = since out len0;
        dirty_pages = dirty;
        dirtied = dirty - dirty0;
        mallocs = stats.mallocs - m0;
        frees = stats.frees - f0;
        live_bytes = stats.live_bytes - live0;
        step_fault;
      }
      :: !steps;
    step_fault = None
  in
  let on_fault f =
    first := Some (f, since f.out f.out_mark);
    Step_through (step f.out)
  in
  let result, recovery =
    run_service ~latency:None
      ~context:(Program.context ~input ~fuel:(Process.Fuel.create ~budget:fuel) alloc)
      svc heap ~interval ~on_fault
  in
  let recovery = Option.get recovery (* [interval > 0]: checkpoints were armed *) in
  let first_fault =
    Option.map
      (fun (f, original) ->
        let replayed = since f.out f.out_mark in
        {
          fault = f.raised;
          at = f.request;
          window = (f.window_start, min svc.Program.requests (f.window_start + interval) - 1);
          pages_restored = recovery.pages_restored;
          steps = List.rev !steps;
          (* The reproduction contract: same fault, same step, and the
             replayed window's output is byte-for-byte the original's. *)
          reproduction =
            (match !steps with
            | { step; step_fault = Some e; _ } :: _ ->
              if step = f.request && Dh_mem.Fault.to_string e = Dh_mem.Fault.to_string f.raised
              then Reproduced
              else Diverged (step, e)
            | _ -> Vanished);
          original_bytes = String.length original;
          replayed_bytes = String.length replayed;
          output_matches = replayed = original;
          flight = Dh_obs.Recorder.last recorder;
        })
      !first
  in
  { first_fault; outcome = result.Process.outcome }

(* --- reporting --- *)

let pp_verdict ppf = function
  | Survived 0 -> Format.pp_print_string ppf "survived (first try)"
  | Survived n -> Format.fprintf ppf "survived (attempt %d)" n
  | Gave_up -> Format.pp_print_string ppf "gave up"

let heap_to_string bytes =
  if bytes >= 1 lsl 20 && bytes mod (1 lsl 20) = 0 then
    Printf.sprintf "%dMiB" (bytes lsr 20)
  else Printf.sprintf "%dKiB" (bytes asr 10)

let pp_incident ppf i =
  Format.fprintf ppf "incident: %s — %a, %d attempt%s, %d steps burned@." i.program
    pp_verdict i.verdict (List.length i.attempts)
    (if List.length i.attempts = 1 then "" else "s")
    i.total_fuel;
  List.iter
    (fun a ->
      Format.fprintf ppf "  attempt %d: %-7s seed=%-11d M=%-3g heap=%-7s -> %a  [fuel %d]%t@."
        a.plan.attempt
        (match a.plan.mode with Randomized -> "diehard" | Rescue -> "rescue")
        a.plan.seed a.plan.multiplier
        (heap_to_string a.plan.heap_size)
        Process.pp_outcome a.outcome a.fuel_burned
        (fun ppf ->
          match a.recovery with
          | Some r when r.checkpoints > 0 ->
            Format.fprintf ppf "  [ckpt %d, rewinds %d, pages restored %d, pre-imaged %d]"
              r.checkpoints r.rewinds r.pages_restored r.preimaged_pages
          | Some _ | None -> ()))
    i.attempts;
  (match i.diagnosis with
  | None -> ()
  | Some d ->
    Format.fprintf ppf "  diagnosis: %s (%d canary violation%s)@."
      (Canary.diagnosis_to_string d)
      (List.length i.canary_violations)
      (if List.length i.canary_violations = 1 then "" else "s");
    List.iter
      (fun v -> Format.fprintf ppf "    %a@." Canary.pp_violation v)
      i.canary_violations);
  (match i.offenders with
  | [] -> ()
  | offenders ->
    Format.fprintf ppf "  top offending sites:@.";
    List.iter
      (fun (s : Dh_obs.Audit.site_stat) ->
        (* Empirical per-site masking: of the site's attributed errors,
           the fraction that never surfaced as a canary hit or fault —
           allocations stand in for exposure (guarded division). *)
        let events = s.Dh_obs.Audit.canaries + s.faults + s.rescues in
        Format.fprintf ppf
          "    %-24s allocs=%-7d frees=%-7d canaries=%d faults=%d rescues=%d \
           masking=%.4f@."
          s.Dh_obs.Audit.name s.s_allocs s.s_frees s.canaries s.faults s.rescues
          (1. -. Dh_obs.Audit.ratio events s.s_allocs))
      offenders);
  match i.flight with
  | [] -> ()
  | reports ->
    Format.fprintf ppf "  flight recorder: %d capture%s@." (List.length reports)
      (if List.length reports = 1 then "" else "s");
    List.iteri (fun n r -> Format.fprintf ppf "%a" (Dh_obs.Recorder.pp_report n) r) reports
