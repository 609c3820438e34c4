(* Figure 4(a) and 4(b): the probabilistic-safety curves, both from the
   closed forms of §6 and from Monte-Carlo experiments on the *actual*
   DieHard heap implementation.  The paper plots the analytic curves;
   we additionally validate that the implemented allocator delivers
   them. *)

module Allocator = Dh_alloc.Allocator
module Theorems = Dh_analysis.Theorems
module Heap = Diehard.Heap
module Config = Diehard.Config

let replicas_axis = [ 1; 3; 4; 5; 6 ]
let fullness_axis = [ (1. /. 8., "1/8 full"); (1. /. 4., "1/4 full"); (1. /. 2., "1/2 full") ]

(* The Figure 4(a) overflow trial, shared by Figure 4(a), its
   overflow-length sweep and the audit's M-sweep: build a heap from
   [config], allocate [fill] objects in the 64-byte class, overflow one
   random live object by [objects] objects' worth of bytes into its
   physically-adjacent slots, and report whether the error was masked —
   no slot it lands in holds a live object.  (Slots past the region's end
   are the unmapped hole page, which holds no live data.) *)
let overflow_trial ~config ~fill ~objects =
  let heap = Heap.create ~config (Dh_mem.Mem.create ()) in
  let alloc = Heap.allocator heap in
  let ptrs = Array.init fill (fun _ -> Allocator.malloc_exn alloc 64) in
  let victim = ptrs.(Dh_rng.Mwc.below (Heap.rng heap) fill) in
  List.for_all
    (fun o ->
      match Heap.find_object heap (victim + (64 * o)) with
      | Some { Allocator.allocated; _ } -> not allocated
      | None -> true)
    (List.init objects (fun o -> o + 1))

(* Figure 4's heap: 12 regions of 256 KiB, M = 2, so the 64-byte class
   can be filled past its 1/M threshold for the 1/2-full point. *)
let fig4_config seed = Config.v ~heap_size:(12 * 256 * 1024) ~seed ()

let fill_to fullness =
  int_of_float
    (float_of_int (Config.objects_in_region (fig4_config 0) ~class_:3) *. fullness)

let figure_4a ~trials =
  Report.heading "Figure 4(a): probability of masking a single-object buffer overflow";
  Report.note "analytic = Theorem 1 (1 - (1-(F/H))^k ... with O=1);";
  Report.note "measured = Monte Carlo on the real DieHard heap, %d trials/cell" trials;
  let pool = Dh_rng.Seed.create ~master:0xF16A in
  let rows =
    List.map
      (fun (fullness, label) ->
        label
        :: List.concat_map
             (fun k ->
               let analytic =
                 Theorems.overflow_mask_probability ~free_fraction:(1. -. fullness)
                   ~objects:1 ~replicas:k
               in
               let masked = ref 0 in
               for _ = 1 to trials do
                 let any = ref false in
                 for _ = 1 to k do
                   if
                     overflow_trial
                       ~config:(fig4_config (Dh_rng.Seed.fresh pool))
                       ~fill:(fill_to fullness) ~objects:1
                   then any := true
                 done;
                 if !any then incr masked
               done;
               let measured = float_of_int !masked /. float_of_int trials in
               [ Report.pct analytic; Report.pct measured ])
             replicas_axis)
      fullness_axis
  in
  Report.table
    ~header:
      ("fullness"
      :: List.concat_map
           (fun k -> [ Printf.sprintf "k=%d" k; "(meas)" ])
           replicas_axis)
    rows

(* §3.1 / Theorem 1 with O > 1: "overflows smaller than M-1 objects [are]
   benign" in expectation; the masking probability decays geometrically
   with the overflow length.  Measured with contiguous multi-slot
   overflows on the real heap. *)
let overflow_length_sweep ~trials =
  Report.subheading "overflow length (objects clobbered) at 1/2 fullness, stand-alone";
  let fullness = 0.5 in
  let pool = Dh_rng.Seed.create ~master:0x0F10 in
  let rows =
    List.map
      (fun objects ->
        let analytic =
          Theorems.overflow_mask_probability ~free_fraction:(1. -. fullness) ~objects
            ~replicas:1
        in
        let masked = ref 0 in
        for _ = 1 to trials do
          if
            overflow_trial
              ~config:(fig4_config (Dh_rng.Seed.fresh pool))
              ~fill:(fill_to fullness) ~objects
          then incr masked
        done;
        [
          string_of_int objects;
          Report.pct analytic;
          Report.pct (float_of_int !masked /. float_of_int trials);
        ])
      [ 1; 2; 3; 4; 8 ]
  in
  Report.table ~header:[ "O (objects)"; "analytic"; "measured" ] rows;
  Report.note
    "composition (6): masking one 1-object overflow AND one 2-object overflow =";
  let p1 = Theorems.overflow_mask_probability ~free_fraction:0.5 ~objects:1 ~replicas:1 in
  let p2 = Theorems.overflow_mask_probability ~free_fraction:0.5 ~objects:2 ~replicas:1 in
  Report.note "%s (independence assumed)"
    (Report.pct (Theorems.multiple_errors_mask_probability [ p1; p2 ]))

(* Figure 4(b): dangling-pointer masking in the paper's default
   configuration (384 MB heap, M = 2), stand-alone mode.  Monte Carlo:
   free one object, perform A intervening allocations of the same size,
   and test whether any of them landed on the freed slot. *)
let sizes_axis = [ 8; 16; 32; 64; 128; 256 ]
let allocs_axis = [ 100; 1000; 10_000 ]

let dangling_masked ~alloc ~size ~allocations =
  let victim = Allocator.malloc_exn alloc size in
  alloc.Allocator.free victim;
  let grabbed = Array.init allocations (fun _ -> Allocator.malloc_exn alloc size) in
  let hit = Array.exists (fun p -> p = victim) grabbed in
  Array.iter (fun p -> alloc.Allocator.free p) grabbed;
  not hit

let figure_4b ~trials =
  Report.heading
    "Figure 4(b): probability of masking dangling-pointer errors (stand-alone, default config)";
  Report.note
    "analytic = Theorem 2 with Q from the 384MB/M=2 geometry; measured = Monte Carlo, %d trials/cell"
    trials;
  Report.note
    "the heap is pre-filled to its live-size bound so the measured free-slot count";
  Report.note "matches the theorem's worst-case Q = F/S";
  let heap_size = 384 lsl 20 in
  let analytic_rows =
    Theorems.figure_4b ~heap_size ~multiplier:2 ~object_sizes:sizes_axis
      ~allocations:allocs_axis
  in
  let max_a = List.fold_left max 0 allocs_axis in
  let rows =
    List.map
      (fun size ->
        (* One heap per object size, pre-filled so the region sits at its
           1/M threshold during the experiment (the theorem's worst case:
           the maximum live size). *)
        let heap = Factory.diehard_heap ~heap_size () in
        let alloc = Heap.allocator heap in
        let config = Heap.config heap in
        let class_ = Dh_alloc.Size_class.of_size_exn size in
        let threshold = Config.threshold config ~class_ in
        let prefill = threshold - max_a - 2 in
        for _ = 1 to prefill do
          ignore (Allocator.malloc_exn alloc size)
        done;
        let analytic = List.assoc size analytic_rows in
        Printf.sprintf "%dB" size
        :: List.concat_map
             (fun allocations ->
               let masked = ref 0 in
               for _ = 1 to trials do
                 if dangling_masked ~alloc ~size ~allocations then incr masked
               done;
               let measured = float_of_int !masked /. float_of_int trials in
               [ Report.pct2 (List.assoc allocations analytic); Report.pct2 measured ])
             allocs_axis)
      sizes_axis
  in
  Report.table
    ~header:
      ("object size"
      :: List.concat_map
           (fun a -> [ Printf.sprintf "A=%d" a; "(meas)" ])
           allocs_axis)
    rows

let run ~quick () =
  figure_4a ~trials:(if quick then 60 else 300);
  overflow_length_sweep ~trials:(if quick then 60 else 300);
  figure_4b ~trials:(if quick then 20 else 100)
