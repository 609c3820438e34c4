(* Ablations of DieHard's design decisions (§4.1–§4.5): what each
   mechanism buys, measured by removing it or by comparing against the
   baseline that lacks it.

   A1  metadata segregation — in-band (freelist) vs out-of-band
       (DieHard) metadata under a metadata-smashing program.
   A2  randomized vs LIFO reclamation — how often a dangling pointer's
       slot is reused within A intervening allocations.
   A3  size-class region segregation — cross-size adjacency: can an
       overflow from a small object reach a different-size object?
   A4  the §4.4 libc shims — strcpy overflow survival with the bounded
       replacements on vs off.
   A5  the M knob — overflow masking and probe cost as M grows.
   A8  page meshing — resident-set cost of randomization with and
       without MESH-style page sharing. *)

module Allocator = Dh_alloc.Allocator
module Process = Dh_mem.Process
module Program = Dh_alloc.Program
module Heap = Diehard.Heap

let a1_metadata ~trials =
  Report.subheading "A1: metadata segregation (smash-the-heap survival)";
  let source =
    {|fn main() {
        var p = malloc(64);
        var q = malloc(64);
        free(q);
        p[8] = 1099511627777;
        p[9] = 1099511627776;
        var s = malloc(64);
        s[0] = 5;
        free(p);
        free(s);
        print_str("OK");
      }|}
  in
  let program = Dh_lang.Interp.program_of_source ~name:"smash" source in
  let survival make =
    let ok = ref 0 in
    for seed = 1 to trials do
      let r = Program.run program (make ~seed) in
      if r.Process.outcome = Process.Exited 0 then incr ok
    done;
    Printf.sprintf "%d/%d survive" !ok trials
  in
  Report.table ~header:[ "metadata"; "outcome" ]
    [
      [ "in-band (freelist)"; survival (fun ~seed -> ignore seed; Factory.freelist ()) ];
      [ "out-of-band (DieHard)"; survival (fun ~seed -> Factory.diehard ~seed ()) ];
    ]

let a2_reclamation ~trials =
  Report.subheading "A2: randomized vs LIFO reclamation (dangling-slot reuse)";
  Report.note "fraction of trials in which a freed slot is reused within A allocations";
  let reuse_rate make ~allocations =
    let reused = ref 0 in
    for seed = 1 to trials do
      let alloc = make ~seed in
      let victim = Allocator.malloc_exn alloc 64 in
      alloc.Allocator.free victim;
      let hit = ref false in
      for _ = 1 to allocations do
        if Allocator.malloc_exn alloc 64 = victim then hit := true
      done;
      if !hit then incr reused
    done;
    float_of_int !reused /. float_of_int trials
  in
  let rows =
    List.map
      (fun allocations ->
        [
          Printf.sprintf "A=%d" allocations;
          Report.pct
            (reuse_rate (fun ~seed -> ignore seed; Factory.freelist ()) ~allocations);
          Report.pct (reuse_rate (fun ~seed -> Factory.diehard ~seed ()) ~allocations);
        ])
      [ 1; 10; 100 ]
  in
  Report.table ~header:[ "intervening allocs"; "freelist (LIFO)"; "DieHard (random)" ] rows

let a3_segregation () =
  Report.subheading "A3: size-class segregation (cross-size adjacency)";
  Report.note
    "under a sequential allocator a 32B object can sit right after a 64B one;";
  Report.note "DieHard's per-class regions make cross-size adjacency impossible";
  let adjacent make =
    let alloc = make () in
    let a = Allocator.malloc_exn alloc 64 in
    let b = Allocator.malloc_exn alloc 24 in
    abs (b - a) < 256
  in
  let cell make = if adjacent make then "adjacent (reachable by overflow)" else "separate regions" in
  Report.table ~header:[ "allocator"; "64B object vs following 24B object" ]
    [
      [ "freelist"; cell (fun () -> Factory.freelist ()) ];
      [ "gc (bump)"; cell (fun () -> Factory.gc ()) ];
      [ "DieHard"; cell (fun () -> Factory.diehard ()) ];
    ]

let a4_shims ~trials =
  Report.subheading "A4: the 4.4 libc shims (bounded strcpy) on vs off";
  let source =
    {|fn main() {
        var big = malloc(512);
        memset(big, 'A', 400);
        store8(big + 400, 0);
        var small = malloc(8);
        var canary = malloc(8);
        canary[0] = 123456;
        strcpy(small, big);
        if (canary[0] == 123456) { print_str("intact"); } else { print_str("clobbered"); }
      }|}
  in
  let count libc =
    let program = Dh_lang.Interp.program_of_source ~libc ~name:"strcpy-ovf" source in
    let intact = ref 0 in
    for seed = 1 to trials do
      let r = Program.run program (Factory.diehard ~seed ()) in
      if r.Process.outcome = Process.Exited 0 && r.Process.output = "intact" then
        incr intact
    done;
    Printf.sprintf "%d/%d canaries intact" !intact trials
  in
  Report.table ~header:[ "libc"; "outcome under DieHard" ]
    [
      [ "unchecked strcpy"; count Dh_lang.Interp.Unchecked ];
      [ "bounded strcpy (shim)"; count Dh_lang.Interp.Bounded ];
    ];
  Report.note "randomization alone already masks most 400-byte overflows of an 8B";
  Report.note "object; the shim makes the guarantee deterministic"

let a5_multiplier ~trials =
  Report.subheading "A5: the heap-expansion factor M (safety vs space/time)";
  Report.note "single-object overflow masking at each M's threshold fullness, and probe cost";
  let rows =
    List.map
      (fun multiplier ->
        let fullness = 1. /. float_of_int multiplier in
        let analytic =
          Dh_analysis.Theorems.overflow_mask_probability
            ~free_fraction:(1. -. fullness) ~objects:1 ~replicas:1
        in
        (* measured on real heaps at threshold fullness: Figure 4(a)'s
           trial *)
        let masked = ref 0 in
        for seed = 1 to trials do
          let config =
            Diehard.Config.v ~multiplier:(float_of_int multiplier)
              ~heap_size:(12 * 256 * 1024) ~seed ()
          in
          let threshold = Diehard.Config.threshold config ~class_:3 in
          if Fig4.overflow_trial ~config ~fill:threshold ~objects:1 then incr masked
        done;
        [
          Printf.sprintf "M=%d" multiplier;
          Report.pct analytic;
          Report.pct (float_of_int !masked /. float_of_int trials);
          Report.f2 (Dh_analysis.Theorems.expected_probes ~multiplier:(float_of_int multiplier));
          Printf.sprintf "%dx" multiplier;
        ])
      [ 2; 4; 8 ]
  in
  Report.table
    ~header:[ "M"; "mask (analytic)"; "mask (measured)"; "probes/alloc"; "space" ]
    rows

let a6_adaptive () =
  Report.subheading "A6: fixed worst-case heap vs adaptive growth (9 future work)";
  Report.note "address space mapped after a small workload (live ~ tens of KB):";
  let profile =
    match Dh_workload.Profile.find "espresso" with
    | Some p -> Dh_workload.Profile.scale p ~factor:0.2
    | None -> failwith "espresso profile missing"
  in
  let run_fixed () =
    let mem = Dh_mem.Mem.create () in
    let heap =
      Heap.create ~config:(Diehard.Config.v ~heap_size:(24 lsl 20) ()) mem
    in
    let alloc = Heap.allocator heap in
    let r = Dh_workload.Driver.run profile alloc in
    (Dh_mem.Mem.mapped_bytes mem, r.Dh_workload.Driver.checksum)
  in
  let run_adaptive () =
    let mem = Dh_mem.Mem.create () in
    let adaptive = Diehard.Adaptive.create mem in
    let alloc = Diehard.Adaptive.allocator adaptive in
    let r = Dh_workload.Driver.run profile alloc in
    (Dh_mem.Mem.mapped_bytes mem, r.Dh_workload.Driver.checksum)
  in
  let fixed_mapped, fixed_sum = run_fixed () in
  let adaptive_mapped, adaptive_sum = run_adaptive () in
  Report.table ~header:[ "heap"; "mapped"; "same result" ]
    [
      [ "fixed (24 MB config)"; Printf.sprintf "%d KB" (fixed_mapped / 1024); "-" ];
      [
        "adaptive (grow-on-demand)";
        Printf.sprintf "%d KB" (adaptive_mapped / 1024);
        (if fixed_sum = adaptive_sum then "yes" else "NO");
      ];
    ];
  Report.note "same 1/M discipline, same randomization; footprint follows the live set"

let a7_partial_protection ~trials =
  Report.subheading "A7: partial protection (9: protect only small size classes)";
  Report.note
    "dangling-reuse probability within 10 allocations, per object size, under the";
  Report.note "hybrid allocator (DieHard for <=256B, freelist beyond):";
  let reuse_rate ~size =
    let reused = ref 0 in
    for seed = 1 to trials do
      let mem = Dh_mem.Mem.create () in
      let hybrid =
        Diehard.Hybrid.create
          ~config:(Diehard.Config.v ~heap_size:(12 * 256 * 1024) ~seed ())
          mem
      in
      let alloc = Diehard.Hybrid.allocator hybrid in
      let victim = Dh_alloc.Allocator.malloc_exn alloc size in
      alloc.Dh_alloc.Allocator.free victim;
      let hit = ref false in
      for _ = 1 to 10 do
        if Dh_alloc.Allocator.malloc_exn alloc size = victim then hit := true
      done;
      if !hit then incr reused
    done;
    float_of_int !reused /. float_of_int trials
  in
  Report.table ~header:[ "object size"; "reused within 10 allocs" ]
    [
      [ "64B (protected)"; Report.pct (reuse_rate ~size:64) ];
      [ "1024B (unprotected)"; Report.pct (reuse_rate ~size:1024) ];
    ];
  Report.note "protected objects keep the randomized-reclamation guarantee;";
  Report.note "unprotected ones fall back to the baseline's LIFO behaviour"

let a8_meshing ~quick () =
  Report.subheading "A8: page meshing (the resident-set cost of randomization)";
  Report.note
    "random placement scatters the live set across pages; meshing merges pages";
  Report.note "with disjoint live slots back onto shared backing pages:";
  let profile =
    match Dh_workload.Profile.find "espresso" with
    | Some p -> Dh_workload.Profile.scale p ~factor:(if quick then 0.2 else 1.0)
    | None -> failwith "espresso profile missing"
  in
  let heap_size = max (Dh_workload.Driver.heap_size_for profile) (24 lsl 20) in
  let leg ~mesh =
    let heap = Factory.diehard_heap ~heap_size ~mesh () in
    let alloc = Heap.allocator heap in
    let r = Dh_workload.Driver.run profile alloc in
    if mesh then ignore (Heap.mesh heap);
    let mem = alloc.Allocator.mem in
    (Dh_mem.Mem.touched_pages mem, Dh_mem.Mem.mapped_bytes mem,
     r.Dh_workload.Driver.checksum)
  in
  let touched_off, mapped_off, sum_off = leg ~mesh:false in
  let touched_on, mapped_on, sum_on = leg ~mesh:true in
  Report.table ~header:[ "meshing"; "pages touched"; "mapped"; "same result" ]
    [
      [ "off"; string_of_int touched_off;
        Printf.sprintf "%d KB" (mapped_off / 1024); "-" ];
      [ "on"; string_of_int touched_on;
        Printf.sprintf "%d KB" (mapped_on / 1024);
        (if sum_off = sum_on then "yes" else "NO") ];
    ];
  Report.note "placement stays uniform-random (same seed, same checksum); only the";
  Report.note "virtual-to-backing page map changes"

let run ~quick () =
  Report.heading "Ablations: what each DieHard design decision buys";
  let trials = if quick then 40 else 200 in
  a1_metadata ~trials:(min trials 50);
  a2_reclamation ~trials:(min trials 100);
  a3_segregation ();
  a4_shims ~trials:(min trials 50);
  a5_multiplier ~trials;
  a6_adaptive ();
  a7_partial_protection ~trials:(min trials 100);
  a8_meshing ~quick ()
