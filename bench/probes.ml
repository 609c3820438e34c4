(* §4.2: allocation probe counts.  "The fact that the heap can only
   become 1/M full bounds the expected time to search for an unused slot
   to 1/(1-(1/M)).  For example, for M = 2, the expected number of
   probes is two."

   We fill a size class to a target fullness and measure the average
   number of bitmap probes per allocation in a window at that fullness,
   against the analytic 1/(1-f). *)

module Allocator = Dh_alloc.Allocator
module Stats = Dh_alloc.Stats
module Heap = Diehard.Heap

let probes_at_fullness ~multiplier ~fullness ~window =
  (* Configure M so the target fullness is reachable (threshold 1/M). *)
  let config =
    Diehard.Config.v ~multiplier:(float_of_int multiplier) ~heap_size:(12 * 512 * 1024)
      ~seed:17 ()
  in
  let mem = Dh_mem.Mem.create () in
  let heap = Heap.create ~config mem in
  let alloc = Heap.allocator heap in
  let class_ = 3 in
  let capacity = Heap.region_capacity heap ~class_ in
  let threshold = Diehard.Config.threshold config ~class_ in
  (* stay one slot under the threshold so the measurement window's own
     allocation always succeeds *)
  let target = min (int_of_float (float_of_int capacity *. fullness)) (threshold - 1) in
  for _ = 1 to target do
    ignore (Allocator.malloc_exn alloc 64)
  done;
  (* measure a window of alloc/free pairs at this fullness *)
  let stats = alloc.Allocator.stats in
  let probes0 = stats.Stats.probes and mallocs0 = stats.Stats.mallocs in
  for _ = 1 to window do
    let p = Allocator.malloc_exn alloc 64 in
    alloc.Allocator.free p
  done;
  let mallocs = stats.Stats.mallocs - mallocs0 in
  if mallocs = 0 then 0.
  else float_of_int (stats.Stats.probes - probes0) /. float_of_int mallocs

let run ~quick () =
  let window = if quick then 2_000 else 10_000 in
  Report.heading "Section 4.2: expected probes per allocation vs heap fullness";
  Report.note "analytic = 1/(1-f); measured over %d alloc/free pairs at fullness f" window;
  let rows =
    List.map
      (fun (fullness, multiplier) ->
        let analytic = 1. /. (1. -. fullness) in
        let measured = probes_at_fullness ~multiplier ~fullness ~window in
        [
          Printf.sprintf "%.3f" fullness;
          Report.f2 analytic;
          Report.f2 measured;
          Printf.sprintf "M=%d threshold %s" multiplier
            (if abs_float (fullness -. (1. /. float_of_int multiplier)) < 0.001 then
               "(at threshold)"
             else "");
        ])
      (* fullness can only reach the 1/M threshold, so the high-fullness
         points use M = 2 and the low-M columns show other thresholds *)
      [ (0.125, 2); (0.25, 2); (0.375, 2); (0.5, 2); (0.25, 4); (0.125, 8) ]
  in
  Report.table ~header:[ "fullness"; "analytic"; "measured"; "note" ] rows;
  Report.note "the M=2 threshold line is the paper's 'expected number of probes is two'"
