(* Tests for the DieHard randomized heap: the algorithm of paper §4.
   Covers size-class routing, the 1/M threshold, random placement,
   validated frees, metadata segregation, large objects with guard pages,
   and the replicated-mode random fill. *)

module Mem = Dh_mem.Mem
module Allocator = Dh_alloc.Allocator
module Size_class = Dh_alloc.Size_class
module Stats = Dh_alloc.Stats
open Diehard

(* A small object's [(class, slot index)], read from the heap's object
   map: a slot reports its class's size, and its base's offset from that
   class's region base gives the index.  [None] for a large object. *)
let slot_of_addr heap p =
  match Heap.find_object heap p with
  | Some { Allocator.base; size; _ } when size <= Size_class.max_size ->
    let class_ = Size_class.of_size_exn size in
    Option.map (fun region -> (class_, (base - region) / size)) (Heap.region_base heap ~class_)
  | Some _ | None -> None

(* Whether a live large object starts at [p]. *)
let large_at heap p =
  match Heap.find_object heap p with
  | Some { Allocator.base; size; allocated } -> allocated && base = p && size > Size_class.max_size
  | None -> false

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_config ?(replicated = false) ?(seed = 1) () =
  (* 12 regions of 64 KB: big enough for interesting tests, small enough
     to exhaust quickly. *)
  Config.v ~heap_size:(12 * 64 * 1024) ~replicated ~seed ()

let make ?config ?seed () =
  let config =
    match (config, seed) with
    | Some c, _ -> c
    | None, Some seed -> small_config ~seed ()
    | None, None -> small_config ()
  in
  let mem = Mem.create () in
  let heap = Heap.create ~config mem in
  (mem, heap, Heap.allocator heap)

(* --- config --- *)

let test_config_validation () =
  Alcotest.check_raises "M <= 1 rejected"
    (Invalid_argument "Config: multiplier must be > 1") (fun () ->
      ignore (Config.v ~multiplier:1. ()));
  Alcotest.check_raises "NaN M rejected"
    (Invalid_argument "Config: multiplier must be > 1") (fun () ->
      ignore (Config.v ~multiplier:Float.nan ()));
  Alcotest.check_raises "tiny heap rejected"
    (Invalid_argument "Config: heap too small for the largest size class") (fun () ->
      ignore (Config.v ~heap_size:65536 ()))

let test_config_geometry () =
  let c = Config.v ~heap_size:(12 lsl 20) ~multiplier:2. () in
  check_int "region size" (1 lsl 20) (8 * Config.objects_in_region c ~class_:0);
  check_int "class-0 capacity" ((1 lsl 20) / 8) (Config.objects_in_region c ~class_:0);
  check_int "class-0 threshold" ((1 lsl 20) / 16) (Config.threshold c ~class_:0);
  check_int "class-11 capacity" ((1 lsl 20) / 16384)
    (Config.objects_in_region c ~class_:11)

(* Every class's threshold [floor (objects / M)] for the M values the
   audit sweeps (12 x 256 KiB heap) and the ablation's M values (default
   24 MiB heap).  The numbers are written out, not recomputed, so a
   threshold formula that drifts from the paper's 1/M shows up here. *)
let test_threshold_table () =
  let table =
    [
      ( 12 * 256 * 1024,
        [
          (1.5, [ 21845; 10922; 5461; 2730; 1365; 682; 341; 170; 85; 42; 21; 10 ]);
          (2., [ 16384; 8192; 4096; 2048; 1024; 512; 256; 128; 64; 32; 16; 8 ]);
          (3., [ 10922; 5461; 2730; 1365; 682; 341; 170; 85; 42; 21; 10; 5 ]);
          (4., [ 8192; 4096; 2048; 1024; 512; 256; 128; 64; 32; 16; 8; 4 ]);
        ] );
      ( Config.default.Config.heap_size,
        [
          (2., [ 131072; 65536; 32768; 16384; 8192; 4096; 2048; 1024; 512; 256; 128; 64 ]);
          (4., [ 65536; 32768; 16384; 8192; 4096; 2048; 1024; 512; 256; 128; 64; 32 ]);
          (8., [ 32768; 16384; 8192; 4096; 2048; 1024; 512; 256; 128; 64; 32; 16 ]);
        ] );
    ]
  in
  List.iter
    (fun (heap_size, rows) ->
      List.iter
        (fun (multiplier, expected) ->
          let c = Config.v ~heap_size ~multiplier () in
          Alcotest.(check (list int))
            (Printf.sprintf "thresholds, heap %d, M=%g" heap_size multiplier)
            expected
            (List.init Dh_alloc.Size_class.count (fun class_ -> Config.threshold c ~class_)))
        rows)
    table

(* --- basic allocation --- *)

let test_malloc_basic () =
  let mem, _, a = make () in
  let p = Allocator.malloc_exn a 100 in
  check "non-null" true (p <> 0);
  Mem.write64 mem p 0xABCD;
  check_int "usable" 0xABCD (Mem.read64 mem p)

let test_malloc_zero_and_negative () =
  let _, _, a = make () in
  check "malloc 0 is NULL" true (a.Allocator.malloc 0 = Allocator.null);
  check "malloc -1 is NULL" true (a.Allocator.malloc (-1) = Allocator.null)

let test_objects_disjoint_and_aligned () =
  let _, heap, a = make () in
  let ptrs = List.init 200 (fun i -> Allocator.malloc_exn a (8 + (i mod 200))) in
  List.iter
    (fun p ->
      match slot_of_addr heap p with
      | Some (class_, slot) ->
        (match Heap.region_base heap ~class_ with
        | Some base ->
          check_int "slot aligned" (base + (slot * Size_class.size class_)) p
        | None -> Alcotest.fail "region must be mapped")
      | None -> Alcotest.fail "pointer must be in a region")
    ptrs;
  let uniq = List.sort_uniq compare ptrs in
  check_int "all distinct" (List.length ptrs) (List.length uniq)

let test_size_class_routing () =
  let _, heap, a = make () in
  List.iter
    (fun (sz, expected_class) ->
      let p = Allocator.malloc_exn a sz in
      match slot_of_addr heap p with
      | Some (class_, _) -> check_int (Printf.sprintf "size %d" sz) expected_class class_
      | None -> Alcotest.fail "small object expected in a region")
    [ (1, 0); (8, 0); (9, 1); (100, 4); (4096, 9); (16384, 11) ]

let test_reserved_size_rounded () =
  let _, _, a = make () in
  let p = Allocator.malloc_exn a 100 in
  match a.Allocator.find_object p with
  | Some { Allocator.size; _ } -> check_int "rounded to 128" 128 size
  | None -> Alcotest.fail "object must resolve"

(* --- the 1/M threshold (§4.2) --- *)

let test_threshold_enforced () =
  let config = small_config () in
  let _, heap, a = make ~config () in
  let class_ = 3 in  (* 64-byte objects *)
  let threshold = Config.threshold config ~class_ in
  for _ = 1 to threshold do
    if a.Allocator.malloc 64 = Allocator.null then
      Alcotest.fail "should not exhaust below the threshold"
  done;
  check "at threshold: NULL" true (a.Allocator.malloc 64 = Allocator.null);
  check_int "region half full" threshold (Heap.region_in_use heap ~class_);
  check "fullness = 1/M" true (abs_float (Heap.region_fullness heap ~class_ -. 0.5) < 0.01)

let test_threshold_per_class_independent () =
  let config = small_config () in
  let _, _, a = make ~config () in
  let threshold = Config.threshold config ~class_:3 in
  for _ = 1 to threshold do
    ignore (Allocator.malloc_exn a 64)
  done;
  check "class 3 exhausted" true (a.Allocator.malloc 64 = Allocator.null);
  check "other classes unaffected" true (a.Allocator.malloc 128 <> Allocator.null);
  check "class 0 unaffected" true (a.Allocator.malloc 8 <> Allocator.null)

let test_free_releases_threshold () =
  let config = small_config () in
  let _, _, a = make ~config () in
  let threshold = Config.threshold config ~class_:3 in
  let ptrs = List.init threshold (fun _ -> Allocator.malloc_exn a 64) in
  check "full" true (a.Allocator.malloc 64 = Allocator.null);
  (match ptrs with
  | p :: _ -> a.Allocator.free p
  | [] -> Alcotest.fail "no allocations");
  check "one slot available again" true (a.Allocator.malloc 64 <> Allocator.null)

(* --- randomization --- *)

let test_layout_differs_across_seeds () =
  let _, _, a1 = make ~seed:1 () in
  let _, _, a2 = make ~seed:2 () in
  let p1 = List.init 50 (fun _ -> Allocator.malloc_exn a1 64) in
  let p2 = List.init 50 (fun _ -> Allocator.malloc_exn a2 64) in
  (* Compare slot sequences (bases are deterministic, offsets are not). *)
  check "different seeds, different layouts" false (p1 = p2)

let test_layout_reproducible_for_same_seed () =
  let _, _, a1 = make ~seed:7 () in
  let _, _, a2 = make ~seed:7 () in
  let p1 = List.init 50 (fun _ -> Allocator.malloc_exn a1 64) in
  let p2 = List.init 50 (fun _ -> Allocator.malloc_exn a2 64) in
  check "same seed reproduces" true (p1 = p2)

let test_placement_roughly_uniform () =
  (* Allocate 1/4 of a region's slots; they should scatter across the
     region rather than cluster at the front. *)
  let config = small_config () in
  let _, heap, a = make ~config () in
  let class_ = 5 in  (* 256-byte objects *)
  let capacity = Heap.region_capacity heap ~class_ in
  let n = capacity / 4 in
  let slots =
    List.init n (fun _ ->
        let p = Allocator.malloc_exn a 256 in
        match slot_of_addr heap p with
        | Some (_, slot) -> slot
        | None -> Alcotest.fail "must be in region")
  in
  let in_first_half = List.length (List.filter (fun s -> s < capacity / 2) slots) in
  (* Expect about n/2; reject gross clustering. *)
  check "spread across halves" true
    (abs (in_first_half - (n / 2)) < n / 4)

let test_no_immediate_reuse_after_free () =
  (* Random reclamation: a freed slot is unlikely to be handed straight
     back (with a half-empty region, chance ~ 1/free_slots). *)
  let _, _, a = make () in
  let reused = ref 0 in
  for _ = 1 to 50 do
    let p = Allocator.malloc_exn a 64 in
    a.Allocator.free p;
    let q = Allocator.malloc_exn a 64 in
    if p = q then incr reused;
    a.Allocator.free q
  done;
  check "rarely reuses immediately (got reuse in <5/50 trials)" true (!reused < 5)

let test_expected_probes_near_analytic () =
  (* §4.2: at fullness f the expected probes are 1/(1-f); at the 1/M=1/2
     threshold that is at most 2.  Fill to the threshold and check the
     average probe count stayed under a small bound. *)
  let config = small_config () in
  let _, _, a = make ~config () in
  let threshold = Config.threshold config ~class_:3 in
  for _ = 1 to threshold do
    ignore (Allocator.malloc_exn a 64)
  done;
  let stats = a.Allocator.stats in
  let avg = float_of_int stats.Stats.probes /. float_of_int stats.Stats.mallocs in
  check (Printf.sprintf "avg probes %.2f in [1, 2.5]" avg) true (avg >= 1. && avg < 2.5)

(* --- validated frees (§4.3) --- *)

let test_double_free_ignored () =
  let _, _, a = make () in
  let p = Allocator.malloc_exn a 64 in
  let q = Allocator.malloc_exn a 64 in
  ignore q;
  a.Allocator.free p;
  a.Allocator.free p;  (* double free *)
  check_int "second free ignored" 1 a.Allocator.stats.Stats.ignored_frees;
  (* heap still consistent: we can still allocate and free normally *)
  let r = Allocator.malloc_exn a 64 in
  a.Allocator.free r;
  check_int "accounting consistent" 1 a.Allocator.stats.Stats.live_objects

let test_invalid_free_misaligned_ignored () =
  let _, _, a = make () in
  let p = Allocator.malloc_exn a 64 in
  a.Allocator.free (p + 4);  (* interior, misaligned *)
  check_int "ignored" 1 a.Allocator.stats.Stats.ignored_frees;
  check_int "object still live" 1 a.Allocator.stats.Stats.live_objects

let test_invalid_free_unallocated_slot_ignored () =
  let _, heap, a = make () in
  let p = Allocator.malloc_exn a 64 in
  (* A different, slot-aligned but unallocated address in the region. *)
  (match slot_of_addr heap p with
  | Some (class_, slot) -> (
    match Heap.region_base heap ~class_ with
    | Some base ->
      let other = if slot = 0 then 1 else 0 in
      let addr = base + (other * 64) in
      (* make sure it's actually free *)
      (match Heap.find_object heap addr with
      | Some { Allocator.allocated = false; _ } ->
        a.Allocator.free addr;
        check_int "ignored" 1 a.Allocator.stats.Stats.ignored_frees
      | _ -> ())  (* occupied by chance; skip *)
    | None -> Alcotest.fail "region unmapped")
  | None -> Alcotest.fail "slot lookup failed")

let test_free_foreign_pointer_ignored () =
  let mem, _, a = make () in
  let foreign = Mem.mmap mem 4096 in
  a.Allocator.free foreign;  (* not in the heap at all *)
  a.Allocator.free 0x123456789;  (* not even mapped *)
  check_int "both ignored" 2 a.Allocator.stats.Stats.ignored_frees

let test_free_null_ok () =
  let _, _, a = make () in
  a.Allocator.free 0;
  check_int "no-op" 0 a.Allocator.stats.Stats.ignored_frees

(* --- metadata segregation --- *)

let test_metadata_survives_heap_scribbling () =
  (* Write over the ENTIRE mapped small-object region; DieHard's bitmaps
     and counters must be unaffected (they live out of band). *)
  let config = small_config () in
  let mem, heap, a = make ~config () in
  let ptrs = List.init 20 (fun _ -> Allocator.malloc_exn a 64) in
  (match Heap.region_base heap ~class_:3 with
  | Some base ->
    let len = Heap.region_capacity heap ~class_:3 * 64 in
    Mem.fill mem ~addr:base ~len 'X'
  | None -> Alcotest.fail "region unmapped");
  check_int "in_use unchanged" 20 (Heap.region_in_use heap ~class_:3);
  (* frees still validate correctly *)
  List.iter (fun p -> a.Allocator.free p) ptrs;
  check_int "all frees accepted" 20 a.Allocator.stats.Stats.frees;
  check_int "none ignored" 0 a.Allocator.stats.Stats.ignored_frees

(* --- large objects (§4.1, §4.3) --- *)

let test_large_object_allocation () =
  let mem, heap, a = make () in
  let p = Allocator.malloc_exn a 100_000 in
  Mem.write8 mem p 1;
  Mem.write8 mem (p + 99_999) 2;
  check_int "large object usable" 1 (Mem.read8 mem p);
  check "count" true (large_at heap p)

let test_large_object_guard_pages () =
  let mem, _, a = make () in
  let p = Allocator.malloc_exn a 20_000 in
  (* Guard page immediately before the payload... *)
  (match Mem.read8 mem (p - 1) with
  | exception Dh_mem.Fault.Error (Dh_mem.Fault.Protection _) -> ()
  | _ -> Alcotest.fail "expected guard page before");
  (* ...and after the page-rounded body. *)
  let body = (20_000 + Mem.page_size - 1) / Mem.page_size * Mem.page_size in
  match Mem.write8 mem (p + body) 1 with
  | exception Dh_mem.Fault.Error (Dh_mem.Fault.Protection _) -> ()
  | _ -> Alcotest.fail "expected guard page after"

let test_large_object_free_unmaps () =
  let mem, heap, a = make () in
  let p = Allocator.malloc_exn a 20_000 in
  a.Allocator.free p;
  check "unregistered" false (large_at heap p);
  match Mem.read8 mem p with
  | exception Dh_mem.Fault.Error _ -> ()
  | _ -> Alcotest.fail "large object should be unmapped"

let test_large_object_double_free_ignored () =
  let _, _, a = make () in
  let p = Allocator.malloc_exn a 20_000 in
  a.Allocator.free p;
  a.Allocator.free p;
  check_int "second ignored" 1 a.Allocator.stats.Stats.ignored_frees

let test_large_boundary_16k () =
  let _, heap, a = make () in
  let p = Allocator.malloc_exn a 16384 in
  check "16K is small" true (slot_of_addr heap p <> None);
  let q = Allocator.malloc_exn a 16385 in
  check "16K+1 is large" true (slot_of_addr heap q = None);
  check "one large object" true (large_at heap q)

(* --- replicated-mode fill --- *)

let test_replicated_fill_randomizes () =
  let config = small_config ~replicated:true () in
  let mem, _, a = make ~config () in
  let p = Allocator.malloc_exn a 64 in
  let bytes = Mem.read_bytes mem ~addr:p ~len:64 in
  check "object not zero-filled" false (String.equal bytes (String.make 64 '\000'));
  (* different seeds produce different fills *)
  let config2 = small_config ~replicated:true ~seed:99 () in
  let mem2, _, a2 = make ~config:config2 () in
  let p2 = Allocator.malloc_exn a2 64 in
  check "fills differ across seeds" false
    (String.equal bytes (Mem.read_bytes mem2 ~addr:p2 ~len:64))

(* The fill's byte stream is part of the replicated-mode contract (equal
   seeds, byte-identical heaps): these digests were recorded from the
   original bytewise fill, one [next_u32] per four bytes. *)
let test_replicated_fill_golden () =
  let mem, _, a = make ~config:(small_config ~replicated:true ~seed:42 ()) () in
  let p = Allocator.malloc_exn a 64 in
  let large = Allocator.malloc_exn a 20000 in
  let digest addr len = Digest.to_hex (Digest.string (Mem.read_bytes mem ~addr ~len)) in
  Alcotest.(check string) "object" "3ffa8af06744fe4a145b6ffd9253a29d" (digest p 64);
  Alcotest.(check string) "region page" "5e325b2bb72d51b32a3ba383f22bbe84"
    (digest (p land lnot (Mem.page_size - 1)) Mem.page_size);
  Alcotest.(check string) "large object" "38676dfe08eeadc23698a7bfb229fa79" (digest large 20000)

let test_standalone_no_fill () =
  let mem, _, a = make () in
  let p = Allocator.malloc_exn a 64 in
  check "fresh region memory is zero (whatever mmap gave)" true
    (String.equal (Mem.read_bytes mem ~addr:p ~len:64) (String.make 64 '\000'))

(* --- masking behaviour (the headline property, small scale) --- *)

let test_overflow_often_hits_free_space () =
  (* With regions at 1/8 fullness, a one-object overflow past a random
     object should hit free space ~7/8 of the time (Theorem 1, k=1). *)
  let config = small_config () in
  let trials = 200 in
  let masked = ref 0 in
  for seed = 1 to trials do
    let mem = Mem.create () in
    let heap = Heap.create ~config:{ config with Config.seed } mem in
    let a = Heap.allocator heap in
    let capacity = Heap.region_capacity heap ~class_:3 in
    let n = capacity / 8 in
    let ptrs = Array.init n (fun _ -> Allocator.malloc_exn a 64) in
    (* overflow the first object into its successor slot *)
    let victim_slot = ptrs.(0) + 64 in
    (match Heap.find_object heap victim_slot with
    | Some { Allocator.allocated = false; _ } -> incr masked
    | Some _ -> ()
    | None -> ()  (* ran off the region end: also harmless here *))
  done;
  let rate = float_of_int !masked /. float_of_int trials in
  check (Printf.sprintf "mask rate %.2f near 7/8" rate) true
    (rate > 0.80 && rate <= 0.95)

(* --- allocator record --- *)

let test_owns_and_find () =
  let _, _, a = make () in
  let p = Allocator.malloc_exn a 64 in
  check "owns" true (a.Allocator.owns p);
  check "owns region free space too" true (a.Allocator.owns (p + 64) || a.Allocator.owns (p - 64));
  match a.Allocator.find_object (p + 63) with
  | Some { Allocator.base; allocated; _ } ->
    check_int "interior resolves to base" p base;
    check "allocated" true allocated
  | None -> Alcotest.fail "find_object failed"

let test_object_size () =
  let _, heap, a = make () in
  let p = Allocator.malloc_exn a 100 in
  check "object_size at base" true
    (Heap.find_object heap p = Some { Allocator.base = p; size = 128; allocated = true });
  check "object_size interior is None" true
    (match Heap.find_object heap (p + 4) with Some { Allocator.base; _ } -> base <> p + 4 | None -> true)

(* --- qcheck properties --- *)

let prop_bitmap_matches_accounting =
  QCheck.Test.make ~name:"diehard: random malloc/free keeps in_use = live slots"
    ~count:50
    QCheck.(pair small_int (list (pair (int_bound 400) bool)))
    (fun (seed, ops) ->
      let config = small_config ~seed:(seed + 1) () in
      let mem = Mem.create () in
      let heap = Heap.create ~config mem in
      let a = Heap.allocator heap in
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
      (* every live pointer resolves to an allocated object at its base *)
      List.for_all
        (fun p ->
          match Heap.find_object heap p with
          | Some { Allocator.base; allocated; _ } -> allocated && base = p
          | None -> false)
        !live
      && a.Allocator.stats.Stats.live_objects = List.length !live)

let prop_malloc_returns_free_then_marks =
  QCheck.Test.make ~name:"diehard: malloc never returns an already-live slot" ~count:30
    QCheck.small_int
    (fun seed ->
      let config = small_config ~seed:(seed + 1) () in
      let mem = Mem.create () in
      let heap = Heap.create ~config mem in
      let a = Heap.allocator heap in
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      for _ = 1 to 300 do
        let p = a.Allocator.malloc 64 in
        if p <> Allocator.null then begin
          if Hashtbl.mem seen p then ok := false;
          Hashtbl.replace seen p ()
        end
      done;
      !ok)

(* With obs off, a small malloc and a free allocate nothing: the result
   is an unboxed address (NULL is 0), and the probe loop, the size-class
   lookup and the region search box no closure, tuple or option. *)
let test_malloc_free_allocation () =
  let config = Config.v ~heap_size:(12 * 1024 * 1024) ~seed:3 () in
  let _, _, a = make ~config () in
  let sizes = [| 8; 24; 48; 100; 200 |] in
  (* Map every region first: the first malloc of a class maps it. *)
  Array.iter (fun sz -> a.Allocator.free (a.Allocator.malloc sz)) sizes;
  let n = 10_000 in
  let addrs = Array.make n 0 in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    let p = a.Allocator.malloc sizes.(i mod Array.length sizes) in
    if p <> Allocator.null then addrs.(i) <- p
  done;
  let malloc_words = Gc.minor_words () -. before in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    a.Allocator.free addrs.(i)
  done;
  let free_words = Gc.minor_words () -. before in
  check "every malloc succeeded" true (Array.for_all (( <> ) 0) addrs);
  Alcotest.(check (float 0.)) "malloc: nothing" 0. malloc_words;
  Alcotest.(check (float 0.)) "free: nothing" 0. free_words

(* With obs on, a small malloc and a free allocate nothing either: the
   audit record and the slot's site store box nothing, and the sampled
   "heap.malloc" and "heap.free" instants write their stamp, phase, name
   and int argument into the ring's own arrays.  6,400 consecutive
   mallocs hold exactly 100 sampled ones, wherever the count starts; the
   warm-up maps every region and creates its site table.  The figures
   the [quick throughput] golden reads as 0 and 0. *)
let test_malloc_free_allocation_obs_on () =
  let config = Config.v ~heap_size:(12 * 1024 * 1024) ~seed:3 () in
  let a = Heap.allocator (Heap.create ~config (Mem.create ~obs:true ())) in
  let sizes = [| 8; 24; 48; 100; 200 |] in
  Array.iter (fun sz -> a.Allocator.free (a.Allocator.malloc sz)) sizes;
  let n = 6_400 in
  let addrs = Array.make n 0 in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    let p = a.Allocator.malloc sizes.(i mod Array.length sizes) in
    if p <> Allocator.null then addrs.(i) <- p
  done;
  let malloc_words = Gc.minor_words () -. before in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    a.Allocator.free addrs.(i)
  done;
  let free_words = Gc.minor_words () -. before in
  check "every malloc succeeded" true (Array.for_all (( <> ) 0) addrs);
  Alcotest.(check (float 0.)) "malloc: nothing" 0. malloc_words;
  Alcotest.(check (float 0.)) "free: nothing" 0. free_words

let suite =
  [
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "config geometry" `Quick test_config_geometry;
    Alcotest.test_case "malloc basic" `Quick test_malloc_basic;
    Alcotest.test_case "malloc 0 / negative" `Quick test_malloc_zero_and_negative;
    Alcotest.test_case "objects disjoint+aligned" `Quick test_objects_disjoint_and_aligned;
    Alcotest.test_case "size-class routing" `Quick test_size_class_routing;
    Alcotest.test_case "reserved size rounded" `Quick test_reserved_size_rounded;
    Alcotest.test_case "threshold table" `Quick test_threshold_table;
    Alcotest.test_case "1/M threshold" `Quick test_threshold_enforced;
    Alcotest.test_case "thresholds independent" `Quick test_threshold_per_class_independent;
    Alcotest.test_case "free releases threshold" `Quick test_free_releases_threshold;
    Alcotest.test_case "seeds change layout" `Quick test_layout_differs_across_seeds;
    Alcotest.test_case "same seed reproduces" `Quick test_layout_reproducible_for_same_seed;
    Alcotest.test_case "placement uniform" `Quick test_placement_roughly_uniform;
    Alcotest.test_case "no immediate reuse" `Quick test_no_immediate_reuse_after_free;
    Alcotest.test_case "expected probes" `Quick test_expected_probes_near_analytic;
    Alcotest.test_case "double free ignored" `Quick test_double_free_ignored;
    Alcotest.test_case "misaligned free ignored" `Quick test_invalid_free_misaligned_ignored;
    Alcotest.test_case "unallocated-slot free ignored" `Quick
      test_invalid_free_unallocated_slot_ignored;
    Alcotest.test_case "foreign free ignored" `Quick test_free_foreign_pointer_ignored;
    Alcotest.test_case "free NULL" `Quick test_free_null_ok;
    Alcotest.test_case "metadata segregated" `Quick test_metadata_survives_heap_scribbling;
    Alcotest.test_case "large object alloc" `Quick test_large_object_allocation;
    Alcotest.test_case "large object guards" `Quick test_large_object_guard_pages;
    Alcotest.test_case "large object free" `Quick test_large_object_free_unmaps;
    Alcotest.test_case "large double free" `Quick test_large_object_double_free_ignored;
    Alcotest.test_case "16K boundary" `Quick test_large_boundary_16k;
    Alcotest.test_case "replicated fill" `Quick test_replicated_fill_randomizes;
    Alcotest.test_case "replicated fill golden" `Quick test_replicated_fill_golden;
    Alcotest.test_case "standalone no fill" `Quick test_standalone_no_fill;
    Alcotest.test_case "overflow mask rate" `Quick test_overflow_often_hits_free_space;
    Alcotest.test_case "owns/find" `Quick test_owns_and_find;
    Alcotest.test_case "malloc/free allocation" `Quick test_malloc_free_allocation;
    Alcotest.test_case "malloc/free allocation, obs on" `Quick
      test_malloc_free_allocation_obs_on;
    Alcotest.test_case "object_size" `Quick test_object_size;
    QCheck_alcotest.to_alcotest prop_bitmap_matches_accounting;
    QCheck_alcotest.to_alcotest prop_malloc_returns_free_then_marks;
  ]
