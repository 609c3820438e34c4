type t = {
  sl_name : string;
  sl_target : int;
  sl_budget : float;
  mutable total : int;
  mutable bad : int;
  mutable alerted : int; (* alert thresholds already fired, as an index *)
}

(* Burn fractions that fire a one-shot trace instant when first crossed. *)
let alert_thresholds = [| 0.5; 1.0 |]

let create ?(name = "slo") ~target ~budget () =
  if target < 0 then invalid_arg "Slo.create: negative latency target";
  if budget <= 0. || budget > 1. then
    invalid_arg "Slo.create: error budget must be in (0, 1]";
  { sl_name = name; sl_target = target; sl_budget = budget; total = 0; bad = 0; alerted = 0 }

let burn t =
  if t.total = 0 then 0.
  else float_of_int t.bad /. float_of_int t.total /. t.sl_budget

let record t ?(error = false) latency =
  if Control.enabled () then begin
    t.total <- t.total + 1;
    if error || latency > t.sl_target then begin
      t.bad <- t.bad + 1;
      let b = burn t in
      while
        t.alerted < Array.length alert_thresholds && b >= alert_thresholds.(t.alerted)
      do
        Tracing.instant
          ~arg:
            (Printf.sprintf "%s:%d%% of error budget" t.sl_name
               (int_of_float (alert_thresholds.(t.alerted) *. 100.)))
          "slo.budget_burn";
        t.alerted <- t.alerted + 1
      done
    end
  end

type report = {
  total : int;
  bad : int;
  compliance : float;
  budget_used : float;
  breached : bool;
}

let report (t : t) =
  let compliance =
    if t.total = 0 then 1.
    else 1. -. (float_of_int t.bad /. float_of_int t.total)
  in
  let budget_used = burn t in
  { total = t.total; bad = t.bad; compliance; budget_used; breached = budget_used > 1. }

(* --- the active slot --- *)

let slot : t option Atomic.t = Atomic.make None

let configure ?name ~target ~budget () =
  let t = create ?name ~target ~budget () in
  Atomic.set slot (Some t);
  t

let active () = Atomic.get slot
let deactivate () = Atomic.set slot None
