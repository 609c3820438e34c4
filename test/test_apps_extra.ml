(* Tests for cfrac-sim, the trace persistence format, and the heap layout
   rendering. *)

module Mem = Dh_mem.Mem
module Process = Dh_mem.Process
module Allocator = Dh_alloc.Allocator
module Program = Dh_alloc.Program
module Trace = Dh_alloc.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fresh_freelist () =
  Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Mem.create ()))

let fresh_diehard ?(seed = 1) () =
  let mem = Mem.create () in
  Diehard.Heap.allocator
    (Diehard.Heap.create ~config:(Diehard.Config.v ~heap_size:(12 * 256 * 1024) ~seed ()) mem)

(* --- cfrac-sim --- *)

let cfrac_expected =
  "8051 = 83 * 97\n10403 = 101 * 103\n121094707 = 10007 * 12101\n\
   999632189 = 31567 * 31667\n"

let test_cfrac_correct () =
  let r = Program.run (Dh_workload.Apps.cfrac ()) (fresh_freelist ()) in
  check "exits" true (r.Process.outcome = Process.Exited 0);
  check_string "factors" cfrac_expected r.Process.output

let test_cfrac_allocator_independent () =
  List.iter
    (fun (name, alloc) ->
      let r = Program.run (Dh_workload.Apps.cfrac ()) alloc in
      check (name ^ " exits") true (r.Process.outcome = Process.Exited 0);
      check_string (name ^ " output") cfrac_expected r.Process.output)
    [
      ("diehard", fresh_diehard ());
      ("diehard(9)", fresh_diehard ~seed:9 ());
      ("gc", Dh_alloc.Gc.allocator (Dh_alloc.Gc.create (Mem.create ())));
    ]

let test_cfrac_allocation_intensive () =
  let alloc = fresh_freelist () in
  let r = Program.run (Dh_workload.Apps.cfrac ()) alloc in
  check "exits" true (r.Process.outcome = Process.Exited 0);
  check "hundreds of allocations (one per rho step)" true
    (alloc.Allocator.stats.Dh_alloc.Stats.mallocs > 250)

let test_cfrac_replicated_agrees () =
  (* Bug-free control: the replicated runtime must always agree. *)
  let report =
    Diehard.Replicated.run
      ~config:(Diehard.Config.v ~heap_size:(12 * 256 * 1024) ())
      ~replicas:3 (Dh_workload.Apps.cfrac ())
  in
  check "agreed" true (report.Diehard.Replicated.verdict = Diehard.Replicated.Agreed);
  check_string "voted output" cfrac_expected report.Diehard.Replicated.output

(* --- trace persistence --- *)

(* The log the [trace] subcommand writes: a header, then one
   "alloc_time free_time size" line per lifetime, in order. *)
let test_trace_roundtrip () =
  let lifetimes =
    [
      { Trace.alloc_time = 1; free_time = 5; size = 64 };
      { Trace.alloc_time = 2; free_time = 2; size = 8 };
      { Trace.alloc_time = 10; free_time = 10_000; size = 16384 };
    ]
  in
  check_string "written log" "# diehard lifetime log v1\n1 5 64\n2 2 8\n10 10000 16384\n"
    (Trace.lifetimes_to_string lifetimes)

let test_trace_real_log_roundtrips () =
  let tracer, traced = Trace.wrap (fresh_freelist ()) in
  let r = Program.run (Dh_workload.Apps.espresso ()) traced in
  check "ran" true (r.Process.outcome = Process.Exited 0);
  let log = Trace.lifetimes tracer in
  match String.split_on_char '\n' (Trace.lifetimes_to_string log) with
  | header :: lines ->
    check_string "header" "# diehard lifetime log v1" header;
    let entries = List.filter (( <> ) "") lines in
    check_int "same length" (List.length log) (List.length entries);
    check "identical" true
      (List.for_all2
         (fun line { Trace.alloc_time; free_time; size } ->
           Scanf.sscanf line "%d %d %d%!" (fun a f s -> (a, f, s))
           = (alloc_time, free_time, size))
         entries log)
  | [] -> Alcotest.fail "empty log"

let test_saved_log_drives_injection () =
  (* The log of a tracing run drives dangling-pointer injection on a
     DieHard heap: every free the heap sees during a malloc call is one
     the injector issued early. *)
  let tracer, traced = Trace.wrap (fresh_freelist ()) in
  ignore (Program.run (Dh_workload.Apps.espresso ()) traced);
  let log = Trace.lifetimes tracer in
  let heap = fresh_diehard () in
  let heap_frees = ref 0 in
  let counted =
    { heap with
      Allocator.free =
        (fun p ->
          incr heap_frees;
          heap.Allocator.free p)
    }
  in
  let spec = { Dh_fault.Injector.paper_dangling with Dh_fault.Injector.seed = 3 } in
  let wrapped = Dh_fault.Injector.wrap spec ~log counted in
  let early = ref 0 in
  let malloc sz =
    let before = !heap_frees in
    let r = wrapped.Allocator.malloc sz in
    early := !early + (!heap_frees - before);
    r
  in
  let r = Program.run (Dh_workload.Apps.espresso ()) { wrapped with Allocator.malloc } in
  check "program ran under injection" true
    (match r.Process.outcome with
    | Process.Exited _ | Process.Crashed _ | Process.Timeout -> true
    | Process.Aborted _ -> false);
  check "faults were injected" true (!early > 100)

(* --- heap layout rendering --- *)

let test_layout_empty_heap () =
  let mem = Mem.create () in
  let heap = Diehard.Heap.create ~config:(Diehard.Config.v ~heap_size:(12 * 64 * 1024) ()) mem in
  check_string "nothing mapped yet" "" (Format.asprintf "%a" Diehard.Heap.pp_layout heap)

let test_layout_shows_occupancy () =
  let mem = Mem.create () in
  let heap = Diehard.Heap.create ~config:(Diehard.Config.v ~heap_size:(12 * 64 * 1024) ()) mem in
  let alloc = Diehard.Heap.allocator heap in
  for _ = 1 to 100 do
    ignore (Allocator.malloc_exn alloc 64)
  done;
  let text = Format.asprintf "%a" Diehard.Heap.pp_layout heap in
  check "mentions the class" true
    (String.length text > 0
    && String.sub text 0 8 = "class  3");
  check "shows the counter" true
    (let needle = "100/1024" in
     let rec contains i =
       i + String.length needle <= String.length text
       && (String.sub text i (String.length needle) = needle || contains (i + 1))
     in
     contains 0)

let test_layout_scatter_vs_cluster () =
  (* DieHard's 100 objects should occupy many distinct buckets; a
     clustering allocator would fill only the first few. *)
  let mem = Mem.create () in
  let heap = Diehard.Heap.create ~config:(Diehard.Config.v ~heap_size:(12 * 64 * 1024) ()) mem in
  let alloc = Diehard.Heap.allocator heap in
  for _ = 1 to 64 do
    ignore (Allocator.malloc_exn alloc 64)
  done;
  let text = Format.asprintf "%a" Diehard.Heap.pp_layout heap in
  (match String.index_opt text '|' with
  | Some start ->
    let bar = String.sub text (start + 1) 64 in
    let occupied = String.length (String.concat "" (List.filter (fun s -> s <> "." ) (List.init 64 (fun i -> String.make 1 bar.[i])))) in
    check (Printf.sprintf "scattered over %d/64 buckets" occupied) true (occupied > 30)
  | None -> Alcotest.fail "no bar in layout")

let test_layout_large_objects_listed () =
  let mem = Mem.create () in
  let heap = Diehard.Heap.create ~config:(Diehard.Config.v ~heap_size:(12 * 64 * 1024) ()) mem in
  let alloc = Diehard.Heap.allocator heap in
  ignore (Allocator.malloc_exn alloc 50_000);
  let text = Format.asprintf "%a" Diehard.Heap.pp_layout heap in
  check "mentions large objects" true
    (let needle = "large objects:" in
     let rec contains i =
       i + String.length needle <= String.length text
       && (String.sub text i (String.length needle) = needle || contains (i + 1))
     in
     contains 0)

let suite =
  [
    Alcotest.test_case "cfrac correct" `Quick test_cfrac_correct;
    Alcotest.test_case "cfrac allocator-independent" `Quick test_cfrac_allocator_independent;
    Alcotest.test_case "cfrac allocation volume" `Quick test_cfrac_allocation_intensive;
    Alcotest.test_case "cfrac replicated" `Quick test_cfrac_replicated_agrees;
    Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace real log" `Quick test_trace_real_log_roundtrips;
    Alcotest.test_case "saved log drives injection" `Quick test_saved_log_drives_injection;
    Alcotest.test_case "layout empty" `Quick test_layout_empty_heap;
    Alcotest.test_case "layout occupancy" `Quick test_layout_shows_occupancy;
    Alcotest.test_case "layout scatter" `Quick test_layout_scatter_vs_cluster;
    Alcotest.test_case "layout large objects" `Quick test_layout_large_objects_listed;
  ]
