type section = { title : string; body : string }

type report = {
  at_us : int;
  reason : string;
  step : int option;
  events : Tracing.event list;
  sections : section list;
}

let window = 64
let max_reports = 16

(* One address space's obs state, written by the one domain running it.
   [ring] is [Some] exactly when obs is on.  [site] is the ambient
   allocation site ({!Audit.with_site} sets it, the heap's audit reads
   it).  [step] is the advertised step: a step-structured loop (the
   supervisor's serve loop) stores its request index here so captures
   fired deep inside a handler — the Mem fault path — land with the
   cursor position filled in.  -1 = no step-structured execution
   active. *)
type t = {
  ring : Tracing.ring option;
  mutable site : int;
  mutable queue : report list;  (* newest first *)
  mutable step : int;
}

let create ~on =
  { ring = (if on then Some (Tracing.ring ()) else None); site = 0; queue = []; step = -1 }

let[@inline] on t = Option.is_some t.ring
let[@inline] site t = t.site
let set_site t id = t.site <- id
let set_step t k = t.step <- k
let clear_step t = t.step <- -1

let instant ?(arg = Tracing.no_arg) t name =
  match t.ring with Some r -> Tracing.record r Instant name arg | None -> ()

let span ?(arg = Tracing.no_arg) t name f =
  match t.ring with
  | None -> f ()
  | Some r ->
    Tracing.record r Begin name arg;
    Fun.protect ~finally:(fun () -> Tracing.record r End name Tracing.no_arg) f

let events t = match t.ring with Some r -> Tracing.tail r Tracing.ring_capacity | None -> []

let trigger ?(sections = []) ~reason t =
  match t.ring with
  | None -> ()
  | Some r ->
    let events = Tracing.tail r window in
    let at_us = match List.rev events with e :: _ -> e.Tracing.ts | [] -> 0 in
    let step = if t.step >= 0 then Some t.step else None in
    let kept = List.filteri (fun i _ -> i < max_reports - 1) t.queue in
    t.queue <- { at_us; reason; step; events; sections } :: kept

let reports t = List.rev t.queue
let last t = match t.queue with r :: _ -> Some r | [] -> None
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

let pp_report i ppf r =
  Format.fprintf ppf "flight record #%d at %d us: %s%t@." i r.at_us r.reason
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
