module Process = Dh_mem.Process
module Program = Dh_alloc.Program
module Trace = Dh_alloc.Trace

type classification = Correct | Wrong_output | Crashed | Aborted | Timed_out

type tally = {
  trials : int;
  correct : int;
  wrong_output : int;
  crashed : int;
  aborted : int;
  timed_out : int;
  runs : classification list;
  events : Dh_obs.Tracing.event list;
}

let classify ~reference (result : Process.result) =
  match result.Process.outcome with
  | Process.Exited 0 ->
    if String.equal result.Process.output reference then Correct else Wrong_output
  | Process.Exited _ -> Wrong_output
  | Process.Crashed _ -> Crashed
  | Process.Aborted _ -> Aborted
  | Process.Timeout -> Timed_out

type error = Tracing_failed of { outcome : Process.outcome; output : string }

let error_to_string (Tracing_failed { outcome; _ }) =
  Printf.sprintf "tracing run did not complete cleanly (%s)"
    (Process.outcome_to_string outcome)

let run ?(input = "") ?(fuel = 50_000_000) ?(jobs = 1) ~trials ~spec ~make_alloc
    program =
  if trials < 0 then invalid_arg "Campaign.run: trials must be >= 0";
  if jobs < 1 then invalid_arg "Campaign.run: jobs must be >= 1";
  (* Each run traces into its own allocator's address space, which
     [make_alloc] built with obs on or off. *)
  let obs_of alloc = Dh_mem.Mem.recorder alloc.Dh_alloc.Allocator.mem in
  (* 1. tracing run: obtain the allocation log *)
  let alloc = make_alloc ~trial:0 in
  let trace_result, tracer =
    Dh_obs.Recorder.span (obs_of alloc) "campaign.trace" (fun () ->
        let tracer, traced_alloc = Trace.wrap alloc in
        (Program.run ~input ~fuel program traced_alloc, tracer))
  in
  match trace_result.Process.outcome with
  | Process.Exited 0 ->
    let log = Trace.lifetimes tracer in
    let reference = trace_result.Process.output in
    (* 2. injected trials.  Each trial is a pure function of its trial
       number (injection seed [spec.seed + trial], fresh allocator, the
       shared read-only log), so trials fan out across domains and the
       classifications come back in trial order — the tally is identical
       for every [jobs]. *)
    let trial_runs =
      Dh_parallel.Pool.init ~jobs trials (fun i ->
          let trial = i + 1 in
          let alloc = make_alloc ~trial in
          let obs = obs_of alloc in
          let run =
            Dh_obs.Recorder.span ~arg:trial obs "campaign.trial" @@ fun () ->
            let injected =
              Injector.wrap { spec with Injector.seed = spec.Injector.seed + trial } ~log alloc
            in
            classify ~reference (Program.run ~input ~fuel program injected)
          in
          (run, Dh_obs.Recorder.events obs))
    in
    let runs = Array.to_list (Array.map fst trial_runs) in
    let count c = List.length (List.filter (fun x -> x = c) runs) in
    Ok
      {
        trials;
        correct = count Correct;
        wrong_output = count Wrong_output;
        crashed = count Crashed;
        aborted = count Aborted;
        timed_out = count Timed_out;
        runs;
        events =
          Dh_obs.Tracing.merge
            (Dh_obs.Recorder.events (obs_of alloc) :: Array.to_list (Array.map snd trial_runs));
      }
  | outcome -> Error (Tracing_failed { outcome; output = trace_result.Process.output })

let run_exn ?input ?fuel ?jobs ~trials ~spec ~make_alloc program =
  match run ?input ?fuel ?jobs ~trials ~spec ~make_alloc program with
  | Ok tally -> tally
  | Error e -> failwith ("Campaign: " ^ error_to_string e)

let pp_tally ppf t =
  let cell name n = if n > 0 then Some (Printf.sprintf "%d/%d %s" n t.trials name) else None in
  let cells =
    List.filter_map Fun.id
      [
        cell "correct" t.correct;
        cell "wrong-output" t.wrong_output;
        cell "crashed" t.crashed;
        cell "aborted" t.aborted;
        cell "timed-out" t.timed_out;
      ]
  in
  Format.pp_print_string ppf (String.concat ", " cells)
