(* Tests for the adaptive DieHard heap (§9 future work): dynamic region
   growth under the same probabilistic discipline as the fixed heap. *)

module Mem = Dh_mem.Mem
module Allocator = Dh_alloc.Allocator
module Stats = Dh_alloc.Stats
module Adaptive = Diehard.Adaptive

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make ?seed () =
  let mem = Mem.create () in
  let t = Adaptive.create ?seed mem in
  (mem, t, Adaptive.allocator t)

let test_basic_roundtrip () =
  let mem, _, a = make () in
  let p = Allocator.malloc_exn a 100 in
  Mem.write64 mem p 77;
  check_int "usable" 77 (Mem.read64 mem p);
  a.Allocator.free p;
  check_int "freed" 0 a.Allocator.stats.Stats.live_objects

let test_never_exhausts () =
  (* The defining property: no fixed capacity.  Allocate far beyond any
     initial region. *)
  let _, t, a = make () in
  for _ = 1 to 10_000 do
    if a.Allocator.malloc 64 = Allocator.null then
      Alcotest.fail "adaptive heap must grow instead of failing"
  done;
  check "multiple miniheaps mapped" true (Adaptive.miniheap_count t ~class_:3 > 3)

let test_growth_is_geometric () =
  let _, t, a = make () in
  for _ = 1 to 1000 do
    ignore (Allocator.malloc_exn a 64)
  done;
  let miniheaps = Adaptive.miniheap_count t ~class_:3 in
  let capacity = Adaptive.class_capacity t ~class_:3 in
  (* geometric doubling: capacity 64+128+256+... = 64*(2^n - 1); keeping
     1000 live objects at most half full takes n = 6 miniheaps (4032) *)
  check_int (Printf.sprintf "miniheaps for capacity %d" capacity) 6 miniheaps;
  check "capacity covers 2x live" true (capacity >= 2 * 1000)

let test_invariant_never_above_threshold () =
  let _, t, a = make () in
  for i = 1 to 5000 do
    ignore (Allocator.malloc_exn a 64);
    if i mod 100 = 0 then
      check
        (Printf.sprintf "fullness at %d allocs" i)
        true
        (float_of_int (Adaptive.class_in_use t ~class_:3)
         /. float_of_int (Adaptive.class_capacity t ~class_:3)
        <= 0.5 +. 0.001)
  done

let test_classes_independent () =
  let _, t, a = make () in
  for _ = 1 to 500 do
    ignore (Allocator.malloc_exn a 64)
  done;
  check_int "untouched class has no miniheaps" 0 (Adaptive.miniheap_count t ~class_:0);
  ignore (Allocator.malloc_exn a 8);
  check_int "first use maps one" 1 (Adaptive.miniheap_count t ~class_:0)

let test_free_validation () =
  let _, _, a = make () in
  let p = Allocator.malloc_exn a 64 in
  a.Allocator.free p;
  a.Allocator.free p;  (* double free ignored *)
  a.Allocator.free (p + 4);  (* misaligned ignored *)
  a.Allocator.free 0xABCDEF;  (* wild ignored *)
  check_int "ignored frees" 3 a.Allocator.stats.Stats.ignored_frees

let test_free_across_miniheaps () =
  let _, t, a = make () in
  let ptrs = Array.init 200 (fun _ -> Allocator.malloc_exn a 64) in
  check "grew" true (Adaptive.miniheap_count t ~class_:3 > 1);
  Array.iter (fun p -> a.Allocator.free p) ptrs;
  check_int "all frees landed" 200 a.Allocator.stats.Stats.frees;
  check_int "class empty" 0 (Adaptive.class_in_use t ~class_:3)

let test_find_object () =
  let _, _, a = make () in
  let p = Allocator.malloc_exn a 100 in
  (match a.Allocator.find_object (p + 50) with
  | Some { Allocator.base; size; allocated } ->
    check_int "base" p base;
    check_int "rounded size" 128 size;
    check "allocated" true allocated
  | None -> Alcotest.fail "interior pointer resolves");
  check "owns" true (a.Allocator.owns p)

let test_random_placement () =
  let _, _, a1 = make ~seed:1 () in
  let _, _, a2 = make ~seed:2 () in
  let p1 = List.init 50 (fun _ -> Allocator.malloc_exn a1 64) in
  let p2 = List.init 50 (fun _ -> Allocator.malloc_exn a2 64) in
  check "seeds change layout" false (p1 = p2);
  let _, _, a3 = make ~seed:1 () in
  let p3 = List.init 50 (fun _ -> Allocator.malloc_exn a3 64) in
  check "same seed reproduces" true (p1 = p3)

let test_uniform_across_miniheaps () =
  (* Slots in later (larger) miniheaps must be proportionally more
     likely: allocate many and check the split roughly follows
     capacities. *)
  let _, t, a = make () in
  (* force growth to 64+128 = 192 capacity, then sample placements *)
  let warm = Array.init 80 (fun _ -> Allocator.malloc_exn a 64) in
  Array.iter (fun p -> a.Allocator.free p) warm;
  check_int "two miniheaps" 2 (Adaptive.miniheap_count t ~class_:3);
  let in_first = ref 0 in
  let total = 1000 in
  let bases =
    List.init total (fun _ ->
        let p = Allocator.malloc_exn a 64 in
        a.Allocator.free p;
        p)
  in
  (* the first (smaller, 64-slot) miniheap has capacity share 1/3 *)
  let min_base = List.fold_left min max_int bases in
  List.iter (fun p -> if p < min_base + (64 * 64) then incr in_first) bases;
  let share = float_of_int !in_first /. float_of_int total in
  check (Printf.sprintf "first-miniheap share %.2f near 1/3" share) true
    (share > 0.23 && share < 0.43)

let test_large_objects () =
  let mem, _, a = make () in
  let p = Allocator.malloc_exn a 50_000 in
  Mem.write8 mem p 1;
  (match Mem.read8 mem (p - 1) with
  | exception Dh_mem.Fault.Error _ -> ()
  | _ -> Alcotest.fail "guard page expected");
  a.Allocator.free p;
  a.Allocator.free p;
  check_int "large double free ignored" 1 a.Allocator.stats.Stats.ignored_frees

let test_mapped_tracks_live_not_worst_case () =
  (* The point of adaptivity: footprint follows use.  A workload with a
     tiny live set must map far less than a paper-default fixed heap. *)
  let _, t, a = make () in
  for _ = 1 to 1000 do
    let p = Allocator.malloc_exn a 64 in
    a.Allocator.free p
  done;
  check
    (Printf.sprintf "mapped %d bytes stays small" (Adaptive.mapped_small_bytes t))
    true
    (Adaptive.mapped_small_bytes t < 1 lsl 20)

let test_min_headroom_keeps_free_slots () =
  let _, t, a = make () in
  ignore t;
  let mem = Mem.create () in
  let protected_ = Adaptive.create ~min_headroom:4096 mem in
  let pa = Adaptive.allocator protected_ in
  for _ = 1 to 100 do
    ignore (Allocator.malloc_exn pa 64)
  done;
  let free_slots =
    Adaptive.class_capacity protected_ ~class_:3 - Adaptive.class_in_use protected_ ~class_:3
  in
  check (Printf.sprintf "headroom maintained (%d free)" free_slots) true
    (free_slots >= 4096);
  (* and the tight heap keeps far less *)
  for _ = 1 to 100 do
    ignore (Allocator.malloc_exn a 64)
  done;
  ignore a

let test_headroom_restores_dangling_protection () =
  (* Theorem 2 with the class's actual free slots: the tight heap reuses
     a freed slot quickly, the headroom heap almost never. *)
  let reuse_rate make =
    let reused = ref 0 in
    for seed = 1 to 50 do
      let alloc = make ~seed in
      (* realistic live load *)
      for _ = 1 to 50 do
        ignore (Allocator.malloc_exn alloc 64)
      done;
      let victim = Allocator.malloc_exn alloc 64 in
      alloc.Allocator.free victim;
      let hit = ref false in
      for _ = 1 to 10 do
        if Allocator.malloc_exn alloc 64 = victim then hit := true
      done;
      if !hit then incr reused
    done;
    !reused
  in
  let tight =
    reuse_rate (fun ~seed -> Adaptive.allocator (Adaptive.create ~seed (Mem.create ())))
  in
  let roomy =
    reuse_rate (fun ~seed ->
        Adaptive.allocator (Adaptive.create ~min_headroom:8192 ~seed (Mem.create ())))
  in
  check
    (Printf.sprintf "tight reuses often (%d/50), roomy rarely (%d/50)" tight roomy)
    true
    (tight > 2 && roomy <= 1)

let test_workload_compatibility () =
  (* The adaptive heap is a drop-in allocator: the synthetic driver must
     produce the same checksum as under every other allocator. *)
  let profile =
    match Dh_workload.Profile.find "espresso" with
    | Some p -> Dh_workload.Profile.scale p ~factor:0.05
    | None -> Alcotest.fail "espresso profile missing"
  in
  let fl = Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Mem.create ())) in
  let expected = (Dh_workload.Driver.run ~seed:3 profile fl).Dh_workload.Driver.checksum in
  let _, _, a = make () in
  let r = Dh_workload.Driver.run ~seed:3 profile a in
  check_int "checksum matches" expected r.Dh_workload.Driver.checksum;
  check_int "no failures" 0 r.Dh_workload.Driver.failed_allocations

let test_minic_compatibility () =
  let _, _, a = make ~seed:5 () in
  let r = Dh_alloc.Program.run (Dh_workload.Apps.espresso ()) a in
  check "espresso-sim runs" true (r.Dh_mem.Process.outcome = Dh_mem.Process.Exited 0)

let prop_accounting_consistent =
  QCheck.Test.make ~name:"adaptive: random ops keep totals = sum of miniheaps" ~count:40
    QCheck.(pair small_int (list (pair (int_bound 300) bool)))
    (fun (seed, ops) ->
      let _, t, a = make ~seed:(seed + 1) () in
      let live = ref [] in
      List.iter
        (fun (sz, do_free) ->
          if do_free && !live <> [] then begin
            match !live with
            | p :: rest ->
              a.Allocator.free p;
              live := rest
            | [] -> ()
          end
          else
            let p = a.Allocator.malloc (1 + sz) in
            if p <> Allocator.null then live := p :: !live)
        ops;
      let total_in_use =
        List.fold_left
          (fun acc class_ -> acc + Adaptive.class_in_use t ~class_)
          0
          (List.init Dh_alloc.Size_class.count Fun.id)
      in
      total_in_use = a.Allocator.stats.Stats.live_objects
      && List.for_all
           (fun p ->
             match a.Allocator.find_object p with
             | Some { Allocator.base; allocated; _ } -> allocated && base = p
             | None -> false)
           (List.filter (fun p -> p < 1 lsl 40) !live))

let suite =
  [
    Alcotest.test_case "basic roundtrip" `Quick test_basic_roundtrip;
    Alcotest.test_case "never exhausts" `Quick test_never_exhausts;
    Alcotest.test_case "geometric growth" `Quick test_growth_is_geometric;
    Alcotest.test_case "threshold invariant" `Quick test_invariant_never_above_threshold;
    Alcotest.test_case "classes independent" `Quick test_classes_independent;
    Alcotest.test_case "free validation" `Quick test_free_validation;
    Alcotest.test_case "free across miniheaps" `Quick test_free_across_miniheaps;
    Alcotest.test_case "find_object" `Quick test_find_object;
    Alcotest.test_case "random placement" `Quick test_random_placement;
    Alcotest.test_case "uniform across miniheaps" `Quick test_uniform_across_miniheaps;
    Alcotest.test_case "large objects" `Quick test_large_objects;
    Alcotest.test_case "footprint tracks live" `Quick test_mapped_tracks_live_not_worst_case;
    Alcotest.test_case "min_headroom free slots" `Quick test_min_headroom_keeps_free_slots;
    Alcotest.test_case "headroom protection" `Quick test_headroom_restores_dangling_protection;
    Alcotest.test_case "workload compatibility" `Quick test_workload_compatibility;
    Alcotest.test_case "MiniC compatibility" `Quick test_minic_compatibility;
    QCheck_alcotest.to_alcotest prop_accounting_consistent;
  ]
