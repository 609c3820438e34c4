(* alloc: Driver.run over the five allocation-intensive profiles (cfrac,
   espresso, lindsay, p2c, roboop) on a DieHard heap with M = 2 and
   meshing on, and the same traces on freelist-lea for the Figure-5
   ratio.  As in bench/fig5.ml, each profile gets a fresh heap warmed by
   one full run of its trace; the second run is measured.  No
   interpreter, supervisor or telemetry: Heap probing, Bitmap, Mem word
   access and the mesher do the work.  The seed drives both the trace
   and the heap's placement. *)

module Profile = Dh_workload.Profile
module Driver = Dh_workload.Driver
module Heap = Diehard.Heap
module Allocator = Dh_alloc.Allocator

(* A quarter of the Figure-5 trace lengths: a pass takes about half a
   second, so a run holds dozens of passes and their median shrugs off
   a slow stretch of the machine. *)
let profiles = List.map (Profile.scale ~factor:0.25) Profile.alloc_intensive

let diehard_heap ~seed p =
  let heap_size = max (Driver.heap_size_for p) (24 lsl 20) in
  Heap.create
    ~config:(Diehard.Config.v ~heap_size ~seed ~mesh:true ())
    (Dh_mem.Mem.create ())

type profile_run = {
  setup_ns : int;
  measured_ns : int;
  reference_ns : int;
  ops : int;
  failed : int;
  exact : (string * int) list;
  errors : string list;
}

let run_profile ~seed ~lat (p : Profile.t) =
  let timed = Ledger.timed in
  (* Set-up is charged to its span as a whole; the warm-up run is not
     broken down by layer. *)
  let setup f = Ledger.span Ledger.Setup (fun () -> Ledger.suspend f) in
  let (heap, warm), setup_ns =
    timed (fun () ->
        setup (fun () ->
            let heap = diehard_heap ~seed p in
            (heap, Driver.run ~seed p (Heap.allocator heap))))
  in
  let alloc = Heap.allocator heap in
  let mem = alloc.Allocator.mem in
  let calls = Ledger.calls ~step:lat () in
  let ops0 = Ledger.mem_ops mem and stats0 = Ledger.heap_stats alloc.Allocator.stats in
  let r, measured_ns =
    timed (fun () ->
        Ledger.span Ledger.Driver_run (fun () ->
            Driver.run ~seed p (Ledger.wrap_alloc calls alloc)))
  in
  let fl = setup (fun () -> let a = Ledger.freelist () in ignore (Driver.run ~seed p a); a) in
  let rf, reference_ns =
    timed (fun () ->
        Ledger.span Ledger.Freelist_run (fun () -> Ledger.suspend (fun () -> Driver.run ~seed p fl)))
  in
  let errors =
    List.filter_map
      (fun (bad, msg) -> if bad then Some (Printf.sprintf "alloc %s: %s" p.Profile.name msg) else None)
      [
        (warm.Driver.failed_allocations > 0, "NULL returns during the warm-up run");
        ( r.Driver.checksum <> rf.Driver.checksum,
          Printf.sprintf "checksum %d on DieHard vs %d on freelist-lea" r.Driver.checksum
            rf.Driver.checksum );
        (rf.Driver.failed_allocations > 0, "NULL returns on freelist-lea");
      ]
  in
  {
    setup_ns;
    measured_ns;
    reference_ns;
    ops = r.Driver.ops_performed;
    failed = r.Driver.failed_allocations;
    exact =
      [ ("alloc." ^ p.Profile.name ^ ".checksum", r.Driver.checksum) ]
      @ Ledger.sum
          [
            ("heap.mallocs", calls.Ledger.mallocs);
            ("heap.frees", calls.Ledger.frees);
            ("heap.meshes", Heap.meshes heap);
          ]
          (Ledger.diff (Ledger.heap_stats alloc.Allocator.stats) stats0
          @ Ledger.diff (Ledger.mem_ops mem) ops0
          @ Ledger.mem_pages mem);
    errors;
  }

let pass ~seed ~lat =
  let runs = List.map (run_profile ~seed ~lat) profiles in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let checksums, counters =
    List.fold_left
      (fun (cs, acc) r ->
        match r.exact with c :: rest -> (c :: cs, Ledger.sum acc rest) | [] -> (cs, acc))
      ([], []) runs
  in
  let ops = total (fun r -> r.ops) in
  {
    Pass.setup_s = Ledger.seconds (total (fun r -> r.setup_ns));
    measured_s = Ledger.seconds (total (fun r -> r.measured_ns));
    reference_s = Ledger.seconds (total (fun r -> r.reference_ns));
    requests = List.length runs;
    mallocs = ops;
    attempted = ops;
    failed = total (fun r -> r.failed);
    exact = List.rev checksums @ counters;
    errors = List.concat_map (fun r -> r.errors) runs;
  }
