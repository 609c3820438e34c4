(* Figure 5(a)/(b): runtime overhead of DieHard versus the default
   allocator and the BDW collector, across the allocation-intensive
   suite and the SPECint2000 stand-ins.

   Absolute times are times of *our simulated allocators driving
   simulated memory*, so only the normalized shape is comparable to the
   paper (see EXPERIMENTS.md).  Each cell is the modeled cycle count
   (below) of one run of the full workload on a warmed fresh heap,
   normalized to the platform's default allocator. *)

module Profile = Dh_workload.Profile
module Driver = Dh_workload.Driver

(* The metric is *modeled cycles*, not host wall-clock: a functional
   simulator charges every access the same, so it cannot see the
   micro-architectural costs (TLB misses from random placement) that the
   paper attributes DieHard's overhead to.  The model:

     cycles = compute units                     (the app's own work)
            + simulated memory accesses         (app + in-heap metadata)
            + allocator metadata probes         (bitmap probes, bin scans)
            + cache_miss_cost x cache misses    (1024-line cache model)
            + tlb_miss_cost x TLB misses        (64-entry TLB model)

   The heap is created and warmed with one full run first, so one-time
   region mapping costs — which long-running programs amortize — do not
   dominate.  Runs are deterministic, so one measured run suffices. *)
let tlb_miss_cost = 20
let cache_miss_cost = 8

let cycles_workload profile make_alloc =
  let alloc = make_alloc () in
  let warmup = Driver.run profile alloc in
  assert (warmup.Driver.failed_allocations = 0);
  let mem = alloc.Dh_alloc.Allocator.mem in
  let m0 = Dh_mem.Mem.stats mem in
  let probes0 = alloc.Dh_alloc.Allocator.stats.Dh_alloc.Stats.probes in
  let r = Driver.run profile alloc in
  assert (r.Driver.failed_allocations = 0);
  let m1 = Dh_mem.Mem.stats mem in
  let probes1 = alloc.Dh_alloc.Allocator.stats.Dh_alloc.Stats.probes in
  let compute = profile.Profile.ops * profile.Profile.compute_per_op in
  let accesses = m1.Dh_mem.Mem.reads - m0.Dh_mem.Mem.reads + m1.Dh_mem.Mem.writes - m0.Dh_mem.Mem.writes in
  let tlb = m1.Dh_mem.Mem.tlb_misses - m0.Dh_mem.Mem.tlb_misses in
  let cache = m1.Dh_mem.Mem.cache_misses - m0.Dh_mem.Mem.cache_misses in
  let probes = probes1 - probes0 in
  float_of_int
    (compute + accesses + probes + (cache_miss_cost * cache) + (tlb_miss_cost * tlb))

let geo_mean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

let suite_rows ~factor ~columns profiles =
  let rows, ratios =
    List.fold_left
      (fun (rows, ratios) profile ->
        let profile = Profile.scale profile ~factor in
        let heap_size = max (Driver.heap_size_for profile) (24 lsl 20) in
        let times =
          List.map
            (fun (_, make) -> cycles_workload profile (fun () -> make ~heap_size))
            columns
        in
        match times with
        | base :: _ when base > 0. ->
          let normalized = List.map (fun t -> t /. base) times in
          let row =
            profile.Profile.name :: List.map (fun x -> Report.f2 x) normalized
          in
          (row :: rows, normalized :: ratios)
        | _ -> (rows, ratios))
      ([], []) profiles
  in
  let rows = List.rev rows in
  let ratios = List.rev ratios in
  let geo =
    "Geo. Mean"
    :: List.mapi
         (fun i _ -> Report.f2 (geo_mean (List.map (fun r -> List.nth r i) ratios)))
         columns
  in
  rows @ [ geo ]

let linux_columns =
  [
    ("malloc", fun ~heap_size -> ignore heap_size; Factory.freelist ());
    (* A real GC comparison bounds the heap to a small multiple of the
       live size (the paper cites 3x-5x); unbounded, the collector never
       runs and looks artificially free. *)
    ( "GC",
      fun ~heap_size ->
        let limit = max (512 * 1024) (heap_size / 48) in
        Factory.gc ~arena_size:(min (1 lsl 20) limit) ~heap_limit:limit () );
    ("DieHard", fun ~heap_size -> Factory.diehard ~heap_size ());
  ]

let windows_columns =
  [
    ( "malloc(XP)",
      fun ~heap_size -> ignore heap_size; Factory.freelist ~variant:Dh_alloc.Freelist.Windows () );
    ("DieHard", fun ~heap_size -> Factory.diehard ~heap_size ());
  ]

let figure_5a ~factor =
  Report.heading "Figure 5(a): normalized runtime, Linux (malloc = 1.00)";
  Report.subheading "allocation-intensive suite";
  Report.table
    ~header:[ "benchmark"; "malloc"; "GC"; "DieHard" ]
    (suite_rows ~factor ~columns:linux_columns Profile.alloc_intensive);
  Report.subheading "general-purpose (SPECint2000 stand-ins)";
  Report.table
    ~header:[ "benchmark"; "malloc"; "GC"; "DieHard" ]
    (suite_rows ~factor ~columns:linux_columns Profile.spec)

let figure_5b ~factor =
  Report.heading "Figure 5(b): normalized runtime, Windows XP (default malloc = 1.00)";
  Report.note
    "the XP allocator stand-in pays per-operation in-heap header bookkeeping,";
  Report.note "making it substantially slower per op than the Lea stand-in (7.2.2)";
  Report.table
    ~header:[ "benchmark"; "malloc(XP)"; "DieHard" ]
    (suite_rows ~factor ~columns:windows_columns Profile.alloc_intensive)

(* Bechamel micro-benchmark: raw malloc/free pair latency per allocator.
   This is the op-level cost underneath the Figure 5 workloads. *)
let microbench () =
  Report.heading "Micro-benchmark: malloc/free pair latency (Bechamel)";
  Report.note "steady-state cost of one 64-byte malloc+free on each allocator";
  let open Bechamel in
  let make_test name make_alloc =
    Test.make_with_resource ~name Test.uniq ~allocate:make_alloc ~free:(fun _ -> ())
      (Staged.stage (fun alloc ->
           let p = alloc.Dh_alloc.Allocator.malloc 64 in
           if p <> Dh_alloc.Allocator.null then alloc.Dh_alloc.Allocator.free p))
  in
  let tests =
    Test.make_grouped ~name:"malloc-free"
      [
        make_test "freelist-lea" (fun () -> Factory.freelist ());
        make_test "freelist-win" (fun () ->
            Factory.freelist ~variant:Dh_alloc.Freelist.Windows ());
        make_test "gc-bdw" (fun () -> Factory.gc ());
        make_test "diehard" (fun () -> Factory.diehard ~heap_size:(24 lsl 20) ());
      ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> est
          | Some _ | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (_, a) (_, b) -> compare a b)
    |> List.map (fun (name, ns) -> [ name; Printf.sprintf "%8.1f ns/op" ns ])
  in
  Report.table ~header:[ "allocator"; "latency" ] rows
