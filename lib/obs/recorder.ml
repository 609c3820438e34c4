type section = { title : string; body : string }

type report = {
  seq : int;
  at_us : int;
  reason : string;
  step : int option;
  events : Tracing.event list;
  sections : section list;
}

let window = 64
let max_reports = 16

(* Captures are cold (they happen on faults), so one lock over the
   report queue costs nothing. *)
let lock = Mutex.create ()
let queue : report list ref = ref []  (* newest first *)
let next_seq = ref 0

(* The advertised step: a step-structured loop (the supervisor's serve
   loop) stores its request index here so captures fired deep inside a
   handler — the Mem fault path — land with the cursor position filled
   in.  -1 = no step-structured execution active. *)
let current_step = Atomic.make (-1)

let set_step k = Atomic.set current_step k
let clear_step () = Atomic.set current_step (-1)

let trigger ?(sections = []) ~reason () =
  if Control.enabled () then begin
    let step = Atomic.get current_step in
    let report =
      {
        seq = 0;  (* seq and at_us are patched under the lock below *)
        at_us = 0;
        reason;
        step = (if step >= 0 then Some step else None);
        events = Tracing.last_events window;
        sections;
      }
    in
    Mutex.protect lock (fun () ->
        let seq = !next_seq in
        incr next_seq;
        let at_us =
          match List.rev report.events with e :: _ -> e.Tracing.ts | [] -> 0
        in
        let trimmed =
          if List.length !queue >= max_reports then
            List.filteri (fun i _ -> i < max_reports - 1) !queue
          else !queue
        in
        queue := { report with seq; at_us } :: trimmed)
  end

let reports () = Mutex.protect lock (fun () -> List.rev !queue)

let take () =
  Mutex.protect lock (fun () ->
      let r = List.rev !queue in
      queue := [];
      r)

let last () = Mutex.protect lock (fun () -> match !queue with r :: _ -> Some r | [] -> None)

let clear () = Mutex.protect lock (fun () -> queue := [])

(* --- step groups ---

   The replay viewer brackets each re-executed request in a
   "replay.step" span, so a report's event window factors into per-step
   groups: everything from one marker's Begin up to (excluding) the next
   marker's Begin — the flight recorder's window, replayed one step at a
   time. *)

type step_group = { step_arg : string; step_events : Tracing.event list }

let step_groups r =
  let flush arg acc groups =
    if arg = None && acc = [] then groups
    else
      { step_arg = Option.value arg ~default:""; step_events = List.rev acc }
      :: groups
  in
  let rec go arg acc groups = function
    | [] -> List.rev (flush arg acc groups)
    | (e : Tracing.event) :: rest ->
      if e.Tracing.phase = Tracing.Begin && e.Tracing.name = "replay.step" then
        go (Some e.Tracing.arg) [ e ] (flush arg acc groups) rest
      else go arg (e :: acc) groups rest
  in
  go None [] [] r.events

let pp_report ppf r =
  Format.fprintf ppf "flight record #%d at %d us: %s%t@." r.seq r.at_us r.reason
    (fun ppf ->
      match r.step with
      | Some k -> Format.fprintf ppf " (step %d)" k
      | None -> ());
  if r.events <> [] then begin
    Format.fprintf ppf "  last %d trace events:@." (List.length r.events);
    List.iter (fun e -> Format.fprintf ppf "    %a@." Tracing.pp_event e) r.events
  end;
  List.iter
    (fun s ->
      if s.body <> "" then begin
        Format.fprintf ppf "  %s:@." s.title;
        String.split_on_char '\n' s.body
        |> List.iter (fun line -> if line <> "" then Format.fprintf ppf "    %s@." line)
      end)
    r.sections
