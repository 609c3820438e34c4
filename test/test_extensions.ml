(* Tests for the pieces added around the core reproduction: the Rx-style
   rescue wrapper, the fail-stop initialization shadow, the TLB/cache
   locality model, GC sweep coalescing, and the Windows-variant arena
   header. *)

module Mem = Dh_mem.Mem
module Process = Dh_mem.Process
module Allocator = Dh_alloc.Allocator
open Dh_alloc

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Rescue (Rx-style) --- *)

let test_rescue_pads () =
  let mem = Mem.create () in
  let fl = Freelist.create mem in
  let rescued = Rescue.wrap (Freelist.allocator fl) in
  let p = Allocator.malloc_exn rescued 32 in
  (* an overflow up to the pad is now harmless: the reservation covers it *)
  match (Freelist.allocator fl).Allocator.find_object p with
  | Some { Allocator.size; _ } -> check "padded reservation" true (size >= 32 + 64)
  | None -> Alcotest.fail "object should exist"

let test_rescue_zero_fills () =
  let mem = Mem.create () in
  let fl = Freelist.create mem in
  let base = Freelist.allocator fl in
  (* dirty a chunk the padded request (64 + 64 bytes) reuses, free it,
     then allocate through the rescue wrapper *)
  let p = Allocator.malloc_exn base (64 + 64) in
  Mem.fill mem ~addr:p ~len:(64 + 64) 'X';
  base.Allocator.free p;
  let rescued = Rescue.wrap base in
  let q = Allocator.malloc_exn rescued 64 in
  check_int "padded request reused the dirty chunk" p q;
  check_int "zero-filled on reuse" 0 (Mem.read64 mem q)

let test_rescue_defers_frees () =
  let mem = Mem.create () in
  let fl = Freelist.create mem in
  let base = Freelist.allocator fl in
  let rescued = Rescue.wrap base in
  let p = Allocator.malloc_exn rescued 64 in
  rescued.Allocator.free p;
  rescued.Allocator.free p;  (* would corrupt the freelist if forwarded *)
  check_int "frees swallowed" 0 base.Allocator.stats.Stats.frees;
  let q = Allocator.malloc_exn rescued 64 in
  check "no reuse of deferred memory" true (q <> p)

(* --- fail-stop initialization shadow --- *)

let expect_abort f =
  match f () with
  | exception Process.Abort _ -> ()
  | _ -> Alcotest.fail "expected fail-stop abort"

let test_failstop_uninit_read_aborts () =
  let mem = Mem.create () in
  let fl = Freelist.create mem in
  let p = Policy.make ~kind:Policy.Fail_stop (Freelist.allocator fl) in
  let ptr = Allocator.malloc_exn (Policy.allocator p) 64 in
  expect_abort (fun () -> ignore (Policy.load p ptr))

let test_failstop_initialized_read_ok () =
  let mem = Mem.create () in
  let fl = Freelist.create mem in
  let p = Policy.make ~kind:Policy.Fail_stop (Freelist.allocator fl) in
  let ptr = Allocator.malloc_exn (Policy.allocator p) 64 in
  Policy.store p ptr 9;
  check_int "read after write fine" 9 (Policy.load p ptr)

let test_failstop_partial_initialization () =
  let mem = Mem.create () in
  let fl = Freelist.create mem in
  let p = Policy.make ~kind:Policy.Fail_stop (Freelist.allocator fl) in
  let ptr = Allocator.malloc_exn (Policy.allocator p) 64 in
  Policy.store8 p ptr 1;  (* only one byte of the word *)
  check_int "byte read of written byte ok" 1 (Policy.load8 p ptr);
  expect_abort (fun () -> ignore (Policy.load p ptr))

let test_failstop_minic_uninit () =
  let mem = Mem.create () in
  let gc = Gc.create mem in
  let program =
    Dh_lang.Interp.program_of_source ~name:"uninit"
      "fn main() { var p = malloc(16); print_int(p[0]); }"
  in
  let r =
    Dh_alloc.Program.run ~policy_kind:Policy.Fail_stop program (Gc.allocator gc)
  in
  match r.Process.outcome with
  | Process.Aborted _ -> ()
  | o -> Alcotest.failf "expected abort, got %s" (Process.outcome_to_string o)

let test_failstop_minic_calloc_ok () =
  let mem = Mem.create () in
  let gc = Gc.create mem in
  let program =
    Dh_lang.Interp.program_of_source ~name:"calloc-ok"
      "fn main() { var p = calloc(16); print_int(p[0]); }"
  in
  let r =
    Dh_alloc.Program.run ~policy_kind:Policy.Fail_stop program (Gc.allocator gc)
  in
  check "calloc counts as initialization" true (r.Process.outcome = Process.Exited 0);
  Alcotest.(check string) "zeroed" "0" r.Process.output

(* The shadow follows the object, as a program sees it through its
   context's allocator: a new object in a freed object's slot starts
   unwritten, and realloc's copy keeps the bytes the old one wrote. *)
let shadow_heaps =
  [
    ("freelist-lea", fun () -> (Freelist.allocator (Freelist.create (Mem.create ())), ignore));
    ( "gc-bdw",
      fun () ->
        let gc = Gc.create (Mem.create ()) in
        (Gc.allocator gc, fun () -> Gc.collect gc) );
  ]

let test_failstop_reuse make () =
  let alloc, collect = make () in
  let reused = ref false in
  let program =
    Dh_alloc.Program.make ~name:"reuse" (fun ctx ->
        let a = ctx.Dh_alloc.Program.alloc and p = ctx.Dh_alloc.Program.policy in
        let old = Allocator.malloc_exn a 16 in
        Policy.store p old 7;
        a.Allocator.free old;
        collect ();
        let fresh = Allocator.malloc_exn a 16 in
        reused := fresh = old;
        ignore (Policy.load p fresh))
  in
  let r = Dh_alloc.Program.run ~policy_kind:Policy.Fail_stop program alloc in
  check "the slot is reused" true !reused;
  match r.Process.outcome with
  | Process.Aborted _ -> ()
  | o -> Alcotest.failf "expected abort, got %s" (Process.outcome_to_string o)

let test_failstop_realloc make () =
  let alloc, _ = make () in
  let program =
    Dh_lang.Interp.program_of_source ~name:"grow"
      "fn main() { var p = malloc(16); p[0] = 7; p[1] = 8; var q = realloc(p, 64); \
       print_int(q[0]); print_int(q[1]); print_int(q != p); }"
  in
  let r = Dh_alloc.Program.run ~policy_kind:Policy.Fail_stop program alloc in
  check "ran" true (r.Process.outcome = Process.Exited 0);
  Alcotest.(check string) "the copied words read" "781" r.Process.output

(* --- locality model --- *)

let test_tlb_sequential_vs_scattered () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (1 lsl 22) in
  (* 4 MB *)
  let seq0 = (Mem.stats mem).Mem.tlb_misses in
  for i = 0 to 999 do
    Mem.write64 mem (a + (8 * i)) i
  done;
  let seq = (Mem.stats mem).Mem.tlb_misses - seq0 in
  let rng = Dh_rng.Mwc.create ~seed:5 in
  let scat0 = (Mem.stats mem).Mem.tlb_misses in
  for _ = 0 to 999 do
    Mem.write64 mem (a + (8 * Dh_rng.Mwc.below rng 500_000)) 1
  done;
  let scattered = (Mem.stats mem).Mem.tlb_misses - scat0 in
  check
    (Printf.sprintf "scattered (%d) >> sequential (%d)" scattered seq)
    true
    (scattered > 10 * max 1 seq)

let test_cache_misses_counted () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (1 lsl 20) in
  let c0 = (Mem.stats mem).Mem.cache_misses in
  (* 8 words in one line: one miss *)
  for i = 0 to 7 do
    Mem.write8 mem (a + i) 1
  done;
  let one_line = (Mem.stats mem).Mem.cache_misses - c0 in
  check_int "one line, one miss" 1 one_line;
  let c1 = (Mem.stats mem).Mem.cache_misses in
  (* 8 words across 8 distinct lines: 8 misses *)
  for i = 0 to 7 do
    Mem.write8 mem (a + 4096 + (i * 64)) 1
  done;
  check_int "eight lines, eight misses" 8 ((Mem.stats mem).Mem.cache_misses - c1)

(* --- GC sweep coalescing --- *)

let test_gc_sweep_coalesces () =
  let mem = Mem.create () in
  let gc = Gc.create ~arena_size:65536 ~heap_limit:65536 mem in
  let a = Gc.allocator gc in
  Gc.register_roots gc (fun () -> []);
  (* fragment the arena with many small dead objects... *)
  for _ = 1 to 500 do
    ignore (a.Allocator.malloc 64)
  done;
  Gc.collect gc;
  (* ...then ask for one object nearly as big as the arena: only possible
     if the sweep merged the free runs *)
  if a.Allocator.malloc 40_000 = Allocator.null then
    Alcotest.fail "sweep should coalesce adjacent free chunks"

(* --- Windows variant arena header --- *)

let test_windows_arena_header_isolated () =
  let mem = Mem.create () in
  let fl = Freelist.create ~variant:Freelist.Windows mem in
  let a = Freelist.allocator fl in
  let p = Allocator.malloc_exn a 64 in
  ignore (Allocator.malloc_exn a 64);
  a.Allocator.free p;
  let q = Allocator.malloc_exn a 64 in
  check_int "reuse still works with the header reserved" p q;
  (* the chunk walk never reports the bookkeeping header as a chunk *)
  let min_base = ref max_int in
  Freelist.chunk_walk fl (fun ~base ~size:_ ~allocated:_ ->
      if base < !min_base then min_base := base);
  check "first chunk starts after the 64-byte heap header" true (!min_base mod 4096 = 64)

let test_windows_bookkeeping_traffic () =
  let mem = Mem.create () in
  let fl = Freelist.create ~variant:Freelist.Windows mem in
  let a = Freelist.allocator fl in
  let p = Allocator.malloc_exn a 64 in
  let w0 = (Mem.stats mem).Mem.writes in
  a.Allocator.free p;
  let per_free = (Mem.stats mem).Mem.writes - w0 in
  (* insert_free writes header+2 links (+bin) = ~3; bookkeeping adds 4 *)
  check (Printf.sprintf "free writes %d >= 7" per_free) true (per_free >= 7)

(* --- driver cost accounting sanity --- *)

let test_diehard_touches_more_pages_than_freelist () =
  let profile =
    {
      Dh_workload.Profile.name = "locality-probe";
      suite = Dh_workload.Profile.Alloc_intensive;
      ops = 2_000;
      sizes = [| (64, 1.0) |];
      lifetime_mean = 10.;
      touch_fraction = 1.0;
      compute_per_op = 1;
      large_rate = 0.;
    }
  in
  let run_on alloc =
    let _ = Dh_workload.Driver.run profile alloc in
    (Mem.stats alloc.Allocator.mem).Mem.tlb_misses
  in
  let fl_misses =
    run_on (Freelist.allocator (Freelist.create (Mem.create ())))
  in
  let mem = Mem.create () in
  let heap = Diehard.Heap.create ~config:(Diehard.Config.v ~heap_size:(24 lsl 20) ()) mem in
  let dh_misses = run_on (Diehard.Heap.allocator heap) in
  check
    (Printf.sprintf "diehard TLB misses (%d) exceed freelist's (%d)" dh_misses fl_misses)
    true
    (dh_misses > 2 * max 1 fl_misses)

let suite =
  [
    Alcotest.test_case "rescue pads" `Quick test_rescue_pads;
    Alcotest.test_case "rescue zero-fills" `Quick test_rescue_zero_fills;
    Alcotest.test_case "rescue defers frees" `Quick test_rescue_defers_frees;
    Alcotest.test_case "fail-stop uninit abort" `Quick test_failstop_uninit_read_aborts;
    Alcotest.test_case "fail-stop init ok" `Quick test_failstop_initialized_read_ok;
    Alcotest.test_case "fail-stop partial init" `Quick test_failstop_partial_initialization;
    Alcotest.test_case "fail-stop MiniC uninit" `Quick test_failstop_minic_uninit;
    Alcotest.test_case "fail-stop MiniC calloc" `Quick test_failstop_minic_calloc_ok;
  ]
  @ List.concat_map
      (fun (name, make) ->
        [
          Alcotest.test_case ("fail-stop reuse unwritten: " ^ name) `Quick (test_failstop_reuse make);
          Alcotest.test_case ("fail-stop realloc keeps writes: " ^ name) `Quick
            (test_failstop_realloc make);
        ])
      shadow_heaps
  @ [
    Alcotest.test_case "tlb model" `Quick test_tlb_sequential_vs_scattered;
    Alcotest.test_case "cache model" `Quick test_cache_misses_counted;
    Alcotest.test_case "gc sweep coalescing" `Quick test_gc_sweep_coalesces;
    Alcotest.test_case "windows arena header" `Quick test_windows_arena_header_isolated;
    Alcotest.test_case "windows bookkeeping" `Quick test_windows_bookkeeping_traffic;
    Alcotest.test_case "diehard page spread" `Quick test_diehard_touches_more_pages_than_freelist;
  ]
