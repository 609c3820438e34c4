(* Tests for the partial-protection hybrid allocator (§9: "selectively
   applying the technique to particular size classes"). *)

module Mem = Dh_mem.Mem
module Allocator = Dh_alloc.Allocator
module Stats = Dh_alloc.Stats
module Hybrid = Diehard.Hybrid
module Heap = Diehard.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Whether the DieHard side manages this live object's address. *)
let is_protected h p = (Heap.allocator (Hybrid.protected_heap h)).Allocator.owns p

let make () =
  let mem = Mem.create () in
  let config = Diehard.Config.v ~heap_size:(12 * 64 * 1024) () in
  let h = Hybrid.create ~config mem in
  (mem, h, Hybrid.allocator h)

let test_routing () =
  let _, h, a = make () in
  let small = Allocator.malloc_exn a 64 in
  let big = Allocator.malloc_exn a 1024 in
  check "small goes to DieHard" true (is_protected h small);
  check "big goes to the freelist" false (is_protected h big)

let test_cutoff_boundary () =
  let _, h, a = make () in
  let at = Allocator.malloc_exn a 256 in
  let above = Allocator.malloc_exn a 257 in
  check "cutoff inclusive" true (is_protected h at);
  check "cutoff+1 unprotected" false (is_protected h above)

let test_small_frees_validated () =
  let _, _, a = make () in
  let p = Allocator.malloc_exn a 64 in
  a.Allocator.free p;
  a.Allocator.free p;  (* double free of a protected object: ignored *)
  check_int "ignored" 1 a.Allocator.stats.Stats.ignored_frees;
  let q = Allocator.malloc_exn a 64 in
  let r = Allocator.malloc_exn a 64 in
  check "no aliasing after double free" true (q <> r)

let test_big_frees_are_baseline () =
  (* Unprotected objects keep the freelist's LIFO-reuse behaviour. *)
  let _, _, a = make () in
  let p = Allocator.malloc_exn a 1024 in
  a.Allocator.free p;
  let q = Allocator.malloc_exn a 1024 in
  check_int "LIFO reuse on the unprotected side" p q

let test_small_random_placement () =
  let _, _, a = make () in
  let p = Allocator.malloc_exn a 64 in
  a.Allocator.free p;
  let reused = ref 0 in
  for _ = 1 to 20 do
    let q = Allocator.malloc_exn a 64 in
    if q = p then incr reused;
    a.Allocator.free q
  done;
  check "protected side rarely reuses" true (!reused < 4)

let test_overflow_small_masked_big_not () =
  let mem, h, a = make () in
  (* protected: the slot after a small object is inside a DieHard region *)
  let small = Allocator.malloc_exn a 64 in
  (match Heap.find_object (Hybrid.protected_heap h) (small + 64) with
  | exception _ -> ()
  | Some _ | None -> ());
  (* unprotected: two big objects sit adjacent in the freelist arena *)
  let b1 = Allocator.malloc_exn a 1024 in
  let b2 = Allocator.malloc_exn a 1024 in
  check "big objects adjacent (freelist layout)" true (abs (b2 - b1) <= 1040);
  ignore mem

let test_stats_aggregate () =
  let _, _, a = make () in
  let p = Allocator.malloc_exn a 64 in
  let q = Allocator.malloc_exn a 1024 in
  check_int "two mallocs" 2 a.Allocator.stats.Stats.mallocs;
  a.Allocator.free p;
  a.Allocator.free q;
  check_int "two frees" 2 a.Allocator.stats.Stats.frees;
  check_int "live zero" 0 a.Allocator.stats.Stats.live_objects

let test_find_object_dispatch () =
  let _, _, a = make () in
  let small = Allocator.malloc_exn a 64 in
  let big = Allocator.malloc_exn a 1024 in
  (match a.Allocator.find_object (small + 10) with
  | Some { Allocator.base; size; _ } ->
    check_int "small base" small base;
    check_int "small rounded to class" 64 size
  | None -> Alcotest.fail "small must resolve");
  match a.Allocator.find_object (big + 10) with
  | Some { Allocator.base; _ } -> check_int "big base" big base
  | None -> Alcotest.fail "big must resolve"

let test_realloc_across_cutoff () =
  (* Growing a protected object past the cutoff moves it to the
     unprotected side (and vice versa), preserving its contents. *)
  let mem, h, a = make () in
  let p = Allocator.malloc_exn a 64 in
  Mem.write64 mem p 4242;
  let q = Allocator.realloc a p 1024 in
  if q = Allocator.null then Alcotest.fail "grow realloc failed";
  check "migrated to the freelist side" false (is_protected h q);
  check_int "contents preserved" 4242 (Mem.read64 mem q);
  (* and back down *)
  let r = Allocator.realloc a q 32 in
  if r = Allocator.null then Alcotest.fail "shrink realloc failed";
  check "migrated back to DieHard" true (is_protected h r);
  check_int "contents preserved again" 4242 (Mem.read64 mem r);
  check_int "accounting consistent" 1 a.Allocator.stats.Stats.live_objects

let test_workload_compatibility () =
  let profile =
    match Dh_workload.Profile.find "espresso" with
    | Some p -> Dh_workload.Profile.scale p ~factor:0.05
    | None -> Alcotest.fail "espresso profile missing"
  in
  let fl = Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Mem.create ())) in
  let expected = (Dh_workload.Driver.run ~seed:3 profile fl).Dh_workload.Driver.checksum in
  let _, _, a = make () in
  let r = Dh_workload.Driver.run ~seed:3 profile a in
  check_int "checksum matches" expected r.Dh_workload.Driver.checksum

let test_footprint_below_full_diehard () =
  (* The point of partial protection: with only the small classes
     protected, a workload that also uses big objects maps less than
     full DieHard.  Compare mapped bytes after identical traffic. *)
  let traffic a =
    for i = 1 to 200 do
      let p = Allocator.malloc_exn a (if i mod 2 = 0 then 64 else 4096) in
      a.Allocator.free p
    done
  in
  (* realistic region sizes: the default 24 MB config (2 MB regions) *)
  let mem_full = Mem.create () in
  let full = Heap.create ~config:(Diehard.Config.v ()) mem_full in
  traffic (Heap.allocator full);
  let mem_hybrid = Mem.create () in
  let hybrid = Hybrid.create ~config:(Diehard.Config.v ()) mem_hybrid in
  let hybrid_alloc = Hybrid.allocator hybrid in
  traffic hybrid_alloc;
  check
    (Printf.sprintf "hybrid maps %d < full %d" (Mem.mapped_bytes mem_hybrid)
       (Mem.mapped_bytes mem_full))
    true
    (Mem.mapped_bytes mem_hybrid < Mem.mapped_bytes mem_full)

let suite =
  [
    Alcotest.test_case "routing" `Quick test_routing;
    Alcotest.test_case "cutoff boundary" `Quick test_cutoff_boundary;
    Alcotest.test_case "small frees validated" `Quick test_small_frees_validated;
    Alcotest.test_case "big frees baseline" `Quick test_big_frees_are_baseline;
    Alcotest.test_case "small random placement" `Quick test_small_random_placement;
    Alcotest.test_case "adjacency split" `Quick test_overflow_small_masked_big_not;
    Alcotest.test_case "stats aggregate" `Quick test_stats_aggregate;
    Alcotest.test_case "find_object dispatch" `Quick test_find_object_dispatch;
    Alcotest.test_case "realloc across cutoff" `Quick test_realloc_across_cutoff;
    Alcotest.test_case "workload compatibility" `Quick test_workload_compatibility;
    Alcotest.test_case "footprint" `Quick test_footprint_below_full_diehard;
  ]
