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
  let tracer, traced = Trace.wrap (fresh_freelist ()) in
  let r = Program.run (Dh_workload.Apps.cfrac ()) traced in
  check "exits" true (r.Process.outcome = Process.Exited 0);
  check "hundreds of allocations (one per rho step)" true
    (Trace.allocation_count tracer > 250)

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

let test_trace_roundtrip () =
  let lifetimes =
    [
      { Trace.alloc_time = 1; free_time = 5; size = 64 };
      { Trace.alloc_time = 2; free_time = 2; size = 8 };
      { Trace.alloc_time = 10; free_time = 10_000; size = 16384 };
    ]
  in
  match Trace.lifetimes_of_string (Trace.lifetimes_to_string lifetimes) with
  | Ok parsed -> check "roundtrip" true (parsed = lifetimes)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_trace_parse_tolerates_noise () =
  match Trace.lifetimes_of_string "# comment\n\n1 2 64\n   \n# more\n3 4 8\n" with
  | Ok [ a; b ] ->
    check_int "first" 1 a.Trace.alloc_time;
    check_int "second size" 8 b.Trace.size
  | Ok _ | Error _ -> Alcotest.fail "expected two entries"

let test_trace_parse_rejects_malformed () =
  (match Trace.lifetimes_of_string "1 2\n" with
  | Error msg -> check "field count error" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "should reject 2 fields");
  (match Trace.lifetimes_of_string "2 1 64\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject free before alloc");
  match Trace.lifetimes_of_string "x y z\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject non-numeric"

let test_trace_real_log_roundtrips () =
  let tracer, traced = Trace.wrap (fresh_freelist ()) in
  let r = Program.run (Dh_workload.Apps.espresso ()) traced in
  check "ran" true (r.Process.outcome = Process.Exited 0);
  let log = Trace.lifetimes tracer in
  match Trace.lifetimes_of_string (Trace.lifetimes_to_string log) with
  | Ok parsed ->
    check_int "same length" (List.length log) (List.length parsed);
    check "identical" true (parsed = log)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_saved_log_drives_injection () =
  (* The persisted log must be usable by the injector exactly like the
     in-memory one. *)
  let tracer, traced = Trace.wrap (fresh_freelist ()) in
  ignore (Program.run (Dh_workload.Apps.espresso ()) traced);
  let text = Trace.lifetimes_to_string (Trace.lifetimes tracer) in
  match Trace.lifetimes_of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok log ->
    let spec = { Dh_fault.Injector.paper_dangling with Dh_fault.Injector.seed = 3 } in
    let inj, wrapped = Dh_fault.Injector.wrap spec ~log (fresh_diehard ()) in
    let r = Program.run (Dh_workload.Apps.espresso ()) wrapped in
    check "program ran under injection" true
      (match r.Process.outcome with
      | Process.Exited _ | Process.Crashed _ | Process.Timeout -> true
      | Process.Aborted _ -> false);
    check "faults were injected" true (Dh_fault.Injector.injected_danglings inj > 100)

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
    Alcotest.test_case "trace noise tolerated" `Quick test_trace_parse_tolerates_noise;
    Alcotest.test_case "trace rejects malformed" `Quick test_trace_parse_rejects_malformed;
    Alcotest.test_case "trace real log" `Quick test_trace_real_log_roundtrips;
    Alcotest.test_case "saved log drives injection" `Quick test_saved_log_drives_injection;
    Alcotest.test_case "layout empty" `Quick test_layout_empty_heap;
    Alcotest.test_case "layout occupancy" `Quick test_layout_shows_occupancy;
    Alcotest.test_case "layout scatter" `Quick test_layout_scatter_vs_cluster;
    Alcotest.test_case "layout large objects" `Quick test_layout_large_objects_listed;
  ]
