(* The safety-margin audit: sweep the heap-expansion factor M over
   {1.5, 2, 3, 4} and, for each point, compare the paper's analytic
   masking guarantees against what the *implemented* heap actually
   delivers, Monte-Carlo style.  Three legs per M, each with a declared
   statistical tolerance:

   - overflow: fill the 64 B class to its 1/M threshold, overflow one
     random live object into its neighbour.  Theorem 1 with O = 1 says
     the hit lands on a free slot with probability F/H.
   - dangling: free a victim, perform A same-class allocations, check
     the victim's slot was not recycled.  With uniform slot choice the
     exact survival probability telescopes to 1 - A/Q (Q the free-slot
     count when the victim is freed) — precisely Theorem 2 at k = 1,
     with equality.  Any systematic gap means the allocator is not
     choosing uniformly.
   - entropy: the audit layer's slot-position histogram must be close
     to the uniform ideal (log2 buckets bits); this is the randomness
     assumption every theorem rests on, checked from the same
     write-only instrumentation `diehard audit` reads in production.

   M = 1.5 is not expressible as an integer multiplier, which is what
   Config.max_live_fraction is for: the sweep drives every point
   through `~max_live_fraction:(1 / M)` so all four configs take the
   same code path.

   The sweep feeds the measured tallies through Dh_obs.Audit /
   Dh_analysis.Margin — the same pipeline the CLI uses — and the gate
   commits the whole report as BENCH_audit.json. *)

module Allocator = Dh_alloc.Allocator
module Theorems = Dh_analysis.Theorems
module Margin = Dh_analysis.Margin
module Audit = Dh_obs.Audit
module Heap = Diehard.Heap
module Config = Diehard.Config

let multipliers = [ 1.5; 2.; 3.; 4. ]
let class_ = 3
let size = 64
let heap_size = 12 * 256 * 1024
let dangling_allocations = 100
let entropy_fills = 4

(* Tolerances: |measured - analytic| <= sigmas * binomial_sigma + slack.
   The slack absorbs the model's edge effects (the region's last slot
   overflows into the hole page and always masks; thresholds round
   down), which are O(1/capacity) but not zero. *)
let sigmas = 4.
let slack = 0.02
let entropy_floor = 0.98
let entropy_ideal = log (float_of_int Audit.slot_buckets) /. log 2.

let make_heap ~m ~seed =
  let config = Config.v ~heap_size ~seed ~max_live_fraction:(1. /. m) () in
  Heap.create ~config (Dh_mem.Mem.create ())

(* Fill the audited class to its 1/M threshold; returns the objects. *)
let fill heap =
  let alloc = Heap.allocator heap in
  let threshold = Config.threshold (Heap.config heap) ~class_ in
  Array.init threshold (fun _ -> Allocator.malloc_exn alloc size)

(* One overflow trial on a fresh heap at its threshold (Figure 4(a)'s
   methodology, at the M-sweep's fullness instead of a fixed one). *)
let overflow_trial ~m ~seed =
  let heap = make_heap ~m ~seed in
  let ptrs = fill heap in
  let victim = ptrs.(Dh_rng.Mwc.below (Heap.rng heap) (Array.length ptrs)) in
  match Heap.find_object heap (victim + size) with
  | Some { Allocator.allocated; _ } -> not allocated
  | None -> true (* ran off the region into the unmapped hole page *)

type leg = {
  analytic : float;
  measured : float;
  sigma : float;
  tol : float;
  ok : bool;
}

(* The acceptance rule for one masking leg, shared by the table and the
   gate. *)
let within ~tol ~analytic measured = Float.abs (measured -. analytic) <= tol

let leg ~analytic ~masked ~trials =
  let measured = float_of_int masked /. float_of_int trials in
  let sigma = Margin.binomial_sigma ~p:analytic ~trials in
  let tol = (sigmas *. sigma) +. slack in
  { analytic; measured; sigma; tol; ok = within ~tol ~analytic measured }

type row = {
  m : float;
  threshold : int;
  capacity : int;
  overflow : leg;
  dangling : leg;
  entropy_bits : float;
  entropy_ratio : float;
  entropy_samples : int;
  entropy_ok : bool;
}

let sweep ~quick () =
  let overflow_trials = if quick then 120 else 400 in
  let dangling_trials = if quick then 300 else 1000 in
  let pool = Dh_rng.Seed.create ~master:0xA0D1 in
  let margin = ref None in
  let rows =
    List.map
      (fun m ->
        let probe = make_heap ~m ~seed:1 in
        let capacity = Heap.region_capacity probe ~class_ in
        let threshold = Config.threshold (Heap.config probe) ~class_ in
        (* -- overflow leg (fresh heap per trial, obs off) -- *)
        let ovf_analytic =
          Theorems.overflow_mask_probability
            ~free_fraction:(1. -. (float_of_int threshold /. float_of_int capacity))
            ~objects:1 ~replicas:1
        in
        let ovf_masked = ref 0 in
        for _ = 1 to overflow_trials do
          if overflow_trial ~m ~seed:(Dh_rng.Seed.fresh pool) then incr ovf_masked
        done;
        (* -- dangling leg (one heap pre-filled so the trials run just
              under the threshold, Figure 4(b)'s methodology) -- *)
        let dheap = make_heap ~m ~seed:(Dh_rng.Seed.fresh pool) in
        let dalloc = Heap.allocator dheap in
        let prefill = threshold - dangling_allocations - 2 in
        for _ = 1 to prefill do
          ignore (Allocator.malloc_exn dalloc size)
        done;
        let q0 = capacity - prefill in
        let dgl_analytic =
          (* Theorem 2 at k = 1 is exact here: P = prod (1 - 1/Q_i)
             telescopes to 1 - A/Q0. *)
          Theorems.dangling_mask_probability ~allocations:dangling_allocations
            ~free_slots:q0 ~replicas:1
        in
        let dgl_masked = ref 0 in
        for _ = 1 to dangling_trials do
          if Fig4.dangling_masked ~alloc:dalloc ~size ~allocations:dangling_allocations
          then incr dgl_masked
        done;
        (* -- entropy leg + audit feed (obs on: exercise the exact
              write path production uses, then read it back) -- *)
        let entropy_bits, entropy_samples =
          Dh_obs.Control.with_enabled true (fun () ->
              Audit.reset ();
              let site = Audit.site "bench:audit-fill" in
              for _ = 1 to entropy_fills do
                let heap = make_heap ~m ~seed:(Dh_rng.Seed.fresh pool) in
                Audit.with_site site (fun () -> ignore (fill heap))
              done;
              Audit.record_error_trials ~error:Audit.Overflow ~masked:!ovf_masked
                ~trials:overflow_trials;
              Audit.record_error_trials ~error:Audit.Dangling ~masked:!dgl_masked
                ~trials:dangling_trials;
              let snap = Audit.snapshot () in
              if m = 2. then
                margin := Some (Margin.of_snapshot ~dangling_allocations snap);
              let c = snap.Audit.classes.(class_) in
              ( Audit.entropy_bits c.Audit.slot_hist,
                Array.fold_left ( + ) 0 c.Audit.slot_hist ))
        in
        let entropy_ratio = entropy_bits /. entropy_ideal in
        {
          m;
          threshold;
          capacity;
          overflow = leg ~analytic:ovf_analytic ~masked:!ovf_masked ~trials:overflow_trials;
          dangling = leg ~analytic:dgl_analytic ~masked:!dgl_masked ~trials:dangling_trials;
          entropy_bits;
          entropy_ratio;
          entropy_samples;
          entropy_ok = entropy_ratio >= entropy_floor;
        })
      multipliers
  in
  (rows, Option.get !margin, overflow_trials, dangling_trials)

let print_rows rows =
  Report.table
    ~header:
      [
        "M"; "live/cap"; "ovf analytic"; "(meas)"; "tol"; "dgl analytic"; "(meas)";
        "tol"; "entropy"; "verdict";
      ]
    (List.map
       (fun r ->
         [
           Printf.sprintf "%g" r.m;
           Printf.sprintf "%d/%d" r.threshold r.capacity;
           Report.pct2 r.overflow.analytic;
           Report.pct2 r.overflow.measured;
           Printf.sprintf "%.3f" r.overflow.tol;
           Report.pct2 r.dangling.analytic;
           Report.pct2 r.dangling.measured;
           Printf.sprintf "%.3f" r.dangling.tol;
           Printf.sprintf "%.2f/%.2f" r.entropy_bits entropy_ideal;
           (if r.overflow.ok && r.dangling.ok && r.entropy_ok then "ok" else "FAIL");
         ])
       rows)

let run ~quick () =
  Report.heading "Safety-margin audit: analytic guarantees vs the measured heap, M sweep";
  Report.note
    "per M: fill the 64B class to its 1/M threshold; overflow = Theorem 1 at that";
  Report.note
    "fullness; dangling = Theorem 2 (exact at k=1) over A=%d allocations; entropy ="
    dangling_allocations;
  Report.note "observed slot-choice randomness vs the uniform ideal";
  let rows, margin, _, _ = sweep ~quick () in
  print_rows rows;
  Report.subheading "Margin report at M=2 (what `diehard audit` prints live)";
  Format.printf "%a@?" Margin.pp margin

(* --- BENCH_audit.json and its gate --- *)

let bench = "audit"

let row_key m field = Printf.sprintf "M=%g/%s" m field

let to_report ~quick rows margin ~overflow_trials ~dangling_trials =
  let leg_metrics m name l =
    List.map
      (fun (field, x) -> (row_key m (name ^ "." ^ field), Gate.float x))
      [
        ("analytic", l.analytic); ("measured", l.measured); ("sigma", l.sigma);
        ("tolerance", l.tol);
      ]
  in
  Gate.v ~bench
    ~config:
      [
        ("quick", Gate.bool quick);
        ("heap_size", Gate.int heap_size);
        ("class", Gate.int class_);
        ("size", Gate.int size);
        ("dangling_allocations", Gate.int dangling_allocations);
        ("overflow_trials", Gate.int overflow_trials);
        ("dangling_trials", Gate.int dangling_trials);
        ("entropy_fills", Gate.int entropy_fills);
        ("sigmas", Gate.float sigmas);
        ("slack", Gate.float slack);
        ("entropy_floor", Gate.float entropy_floor);
      ]
    ~exact:
      (List.concat_map
         (fun r ->
           [
             (row_key r.m "threshold", Gate.int r.threshold);
             (row_key r.m "capacity", Gate.int r.capacity);
           ]
           @ leg_metrics r.m "overflow" r.overflow
           @ leg_metrics r.m "dangling" r.dangling
           @ [
               (row_key r.m "entropy.bits", Gate.float r.entropy_bits);
               (row_key r.m "entropy.ideal", Gate.float entropy_ideal);
               (row_key r.m "entropy.ratio", Gate.float r.entropy_ratio);
               (row_key r.m "entropy.samples", Gate.int r.entropy_samples);
             ])
         rows
      @ [
          ( "uninit.detect_k3",
            Gate.float (Theorems.uninit_detect_probability ~bits:32 ~replicas:3) );
          (* the M=2 margin report exactly as `diehard audit --format json`
             prints it *)
          ("margin", Result.get_ok (Dh_obs.Json.parse (Margin.to_json margin)));
        ])
    ~wall:[]

(* One check per M-point: both masking legs within their declared
   tolerance of the analytic value, and the slot entropy above its
   floor. *)
let checks =
  List.map
    (fun m ->
      Gate.check (Printf.sprintf "M=%g" m) (fun r ->
          let num field = Gate.number r (row_key m field) in
          let leg name =
            let measured = num (name ^ ".measured")
            and analytic = num (name ^ ".analytic")
            and tol = num (name ^ ".tolerance") in
            ( within ~tol ~analytic measured,
              Printf.sprintf "%s %.4f vs analytic %.4f (tol %.4f)" name measured
                analytic tol )
          in
          let ratio = num "entropy.ratio" in
          let parts =
            [
              leg "overflow";
              leg "dangling";
              ( ratio >= entropy_floor,
                Printf.sprintf "entropy %.1f%% of ideal (floor %.0f%%)" (100. *. ratio)
                  (100. *. entropy_floor) );
            ]
          in
          let failing = List.filter (fun (ok, _) -> not ok) parts in
          Gate.verdict (failing = [])
            (String.concat "; " (List.map snd (if failing = [] then parts else failing)))))
    multipliers

let gate ~quick () =
  Report.heading "Audit gate: empirical masking must track the analytic curve";
  Gate.run ~bench checks (fun () ->
      let rows, margin, overflow_trials, dangling_trials = sweep ~quick () in
      print_rows rows;
      to_report ~quick rows margin ~overflow_trials ~dangling_trials)
