(* Tests for the conservative mark-sweep collector: reachability keeps
   objects alive (including via interior and heap-internal pointers),
   unreachable objects are reclaimed, and free is a no-op — the BDW
   error profile of Table 1. *)

open Dh_alloc
module Mem = Dh_mem.Mem

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make ?arena_size ?heap_limit () =
  let mem = Mem.create () in
  let gc = Gc.create ?arena_size ?heap_limit mem in
  (mem, gc, Gc.allocator gc)

let test_basic_alloc () =
  let mem, _, a = make () in
  let p = Allocator.malloc_exn a 64 in
  Mem.write64 mem p 7;
  check_int "usable" 7 (Mem.read64 mem p)

let test_free_is_noop () =
  let mem, gc, a = make () in
  let p = Allocator.malloc_exn a 64 in
  Mem.write64 mem p 0xFEED;
  a.Allocator.free p;
  a.Allocator.free p;  (* double free: harmless *)
  a.Allocator.free 12345;  (* invalid free: harmless *)
  check_int "data survives free" 0xFEED (Mem.read64 mem p);
  check_int "still one live object" 1 (Gc.live_objects gc);
  check_int "ignored frees recorded" 3 a.Allocator.stats.Stats.ignored_frees

let test_collect_reclaims_unreachable () =
  let _, gc, a = make () in
  let roots = ref [] in
  Gc.register_roots gc (fun () -> !roots);
  let keep = Allocator.malloc_exn a 64 in
  let _drop = Allocator.malloc_exn a 64 in
  roots := [ keep ];
  Gc.collect gc;
  check_int "only the rooted object survives" 1 (Gc.live_objects gc)

let test_interior_pointer_pins () =
  let _, gc, a = make () in
  let roots = ref [] in
  Gc.register_roots gc (fun () -> !roots);
  let p = Allocator.malloc_exn a 256 in
  roots := [ p + 128 ];  (* interior pointer *)
  Gc.collect gc;
  check_int "interior pointer keeps object" 1 (Gc.live_objects gc)

let test_transitive_marking () =
  let mem, gc, a = make () in
  let roots = ref [] in
  Gc.register_roots gc (fun () -> !roots);
  let head = Allocator.malloc_exn a 16 in
  let mid = Allocator.malloc_exn a 16 in
  let tail = Allocator.malloc_exn a 16 in
  Mem.write64 mem head mid;  (* head -> mid -> tail *)
  Mem.write64 mem mid tail;
  Mem.write64 mem tail 0;
  let _garbage = Allocator.malloc_exn a 16 in
  roots := [ head ];
  Gc.collect gc;
  check_int "chain survives, garbage collected" 3 (Gc.live_objects gc)

let test_conservative_false_positive () =
  (* An integer that happens to equal a heap address pins the object —
     conservatism by design. *)
  let mem, gc, a = make () in
  let roots = ref [] in
  Gc.register_roots gc (fun () -> !roots);
  let holder = Allocator.malloc_exn a 16 in
  let victim = Allocator.malloc_exn a 16 in
  Mem.write64 mem holder victim;  (* "integer" equal to victim's address *)
  roots := [ holder ];
  Gc.collect gc;
  check_int "value keeps the chunk pinned" 2 (Gc.live_objects gc)

let test_memory_reused_after_collection () =
  let _, gc, a = make ~arena_size:8192 ~heap_limit:8192 () in
  Gc.register_roots gc (fun () -> []);
  (* Fill the single arena with garbage; allocation must keep succeeding
     because collection recycles it. *)
  for _ = 1 to 100 do
    if a.Allocator.malloc 512 = Allocator.null then
      Alcotest.fail "collection should have recycled garbage"
  done;
  check "collections happened" true (a.Allocator.stats.Stats.gc_collections > 0)

let test_heap_limit_oom_when_all_live () =
  let _, gc, a = make ~arena_size:8192 ~heap_limit:8192 () in
  let live = ref [] in
  Gc.register_roots gc (fun () -> !live);
  let rec fill n =
    if n > 100 then n
    else
      let p = a.Allocator.malloc 512 in
      if p = Allocator.null then n
      else begin
        live := p :: !live;
        fill (n + 1)
      end
  in
  let got = fill 0 in
  check "OOM with everything reachable" true (got <= 16)

let test_dangling_pointer_safe () =
  (* The Table 1 "dangling pointers: correct" cell: freeing early is
     harmless because the collector sees the object is still referenced. *)
  let mem, gc, a = make () in
  let roots = ref [] in
  Gc.register_roots gc (fun () -> !roots);
  let p = Allocator.malloc_exn a 64 in
  Mem.write64 mem p 0xCAFE;
  roots := [ p ];
  a.Allocator.free p;  (* premature free *)
  Gc.collect gc;
  (* Allocate a lot; p must never be recycled while rooted. *)
  for _ = 1 to 50 do
    ignore (a.Allocator.malloc 64)
  done;
  check_int "prematurely-freed data intact" 0xCAFE (Mem.read64 mem p)

let test_uninitialized_reuse_leaks_stale_data () =
  (* Table 1 "uninitialized reads: undefined": recycled memory is not
     cleared. *)
  let mem, gc, a = make ~arena_size:8192 ~heap_limit:8192 () in
  Gc.register_roots gc (fun () -> []);
  let p = Allocator.malloc_exn a 512 in
  Mem.write64 mem p 0x5EC4E7;
  (* Drop it, force recycling, and look for the stale value in fresh
     allocations. *)
  Gc.collect gc;
  let found = ref false in
  for _ = 1 to 20 do
    let q = a.Allocator.malloc 512 in
    if q <> Allocator.null && Mem.read64 mem q = 0x5EC4E7 then found := true
  done;
  check "stale data visible in fresh object" true !found

let test_find_object () =
  let _, _, a = make () in
  let p = Allocator.malloc_exn a 100 in
  match a.Allocator.find_object (p + 10) with
  | Some { Allocator.base; allocated; _ } ->
    check_int "base" p base;
    check "allocated" true allocated
  | None -> Alcotest.fail "should resolve"

let test_metadata_overwrite_undefined () =
  (* Headers are in-band: overflowing an object corrupts the next
     header, after which the collector's view of the heap is broken
     (here: the downstream object vanishes from the walk). *)
  let mem, gc, a = make () in
  Gc.register_roots gc (fun () -> []);
  let p = Allocator.malloc_exn a 64 in
  let q = Allocator.malloc_exn a 64 in
  ignore q;
  let before = Gc.live_objects gc in
  (* smash q's header through p *)
  for i = 0 to 71 do
    Mem.write8 mem (p + i) 0xFF
  done;
  let after = Gc.live_objects gc in
  check "heap walk sees fewer objects after corruption" true (after < before)

let suite =
  [
    Alcotest.test_case "basic alloc" `Quick test_basic_alloc;
    Alcotest.test_case "free is no-op" `Quick test_free_is_noop;
    Alcotest.test_case "collect reclaims unreachable" `Quick test_collect_reclaims_unreachable;
    Alcotest.test_case "interior pointers pin" `Quick test_interior_pointer_pins;
    Alcotest.test_case "transitive marking" `Quick test_transitive_marking;
    Alcotest.test_case "conservative false positive" `Quick test_conservative_false_positive;
    Alcotest.test_case "memory reused after collection" `Quick test_memory_reused_after_collection;
    Alcotest.test_case "OOM when all live" `Quick test_heap_limit_oom_when_all_live;
    Alcotest.test_case "dangling pointer safe" `Quick test_dangling_pointer_safe;
    Alcotest.test_case "uninitialized reuse" `Quick test_uninitialized_reuse_leaks_stale_data;
    Alcotest.test_case "find_object" `Quick test_find_object;
    Alcotest.test_case "metadata overwrite undefined" `Quick test_metadata_overwrite_undefined;
  ]
