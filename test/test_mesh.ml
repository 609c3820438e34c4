(* Tests for MESH-style page meshing: the simmem physical-page
   indirection ({!Mem.alias}: accounting, access paths, fault semantics)
   and the heap's SplitMesher (live bytes preserved, determinism, and
   differential equivalence with meshing off — program-visible bytes,
   fault classifications and replica fingerprints must not change). *)

module Mem = Dh_mem.Mem
module Fault = Dh_mem.Fault
module Process = Dh_mem.Process
module Bitmap = Dh_alloc.Bitmap
module Allocator = Dh_alloc.Allocator
module Program = Dh_alloc.Program
module Heap = Diehard.Heap
module Config = Diehard.Config
module Driver = Dh_workload.Driver
module Profile = Dh_workload.Profile

(* DieHard's malloc and free, through the allocator record the system
   calls. *)
let heap_malloc h = (Heap.allocator h).Allocator.malloc
let heap_free h = (Heap.allocator h).Allocator.free

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let page = Mem.page_size

let faults f = match f () with _ -> false | exception Fault.Error _ -> true

let rejects f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* --- the bitmap set algebra the mesher runs on --- *)

let test_bitmap_algebra () =
  (* Three 3-bit windows, the per-page view of a class with 3 slots per
     page: unaligned, so the bitwise path answers.  Windows 0 and 2
     collide on relative slot 1; window 1 shares nothing. *)
  let t = Bitmap.create 9 in
  List.iter (Bitmap.set t) [ 1; 3; 7 ];
  check "windows 0/1 disjoint" true (Bitmap.window_disjoint t ~a:0 ~b:3 ~len:3);
  check "windows 1/2 disjoint" true (Bitmap.window_disjoint t ~a:3 ~b:6 ~len:3);
  check "windows 0/2 collide on relative slot 1" false
    (Bitmap.window_disjoint t ~a:0 ~b:6 ~len:3);
  Bitmap.clear t 7;
  check "clearing the shared slot makes them disjoint" true
    (Bitmap.window_disjoint t ~a:0 ~b:6 ~len:3);
  check "a window out of range is rejected" true
    (rejects (fun () -> Bitmap.window_disjoint t ~a:0 ~b:7 ~len:3))

let test_bitmap_windows () =
  (* Three 64-bit windows: the per-page view of a 64-slots-per-page
     class.  Windows 0 and 2 collide on relative slot 3. *)
  let t = Bitmap.create 256 in
  Bitmap.set t 3;
  Bitmap.set t 70;
  Bitmap.set t (128 + 3);
  check "windows 0/1 disjoint" true (Bitmap.window_disjoint t ~a:0 ~b:64 ~len:64);
  check "windows 0/2 collide on relative slot 3" false
    (Bitmap.window_disjoint t ~a:0 ~b:128 ~len:64);
  let seen = ref [] in
  Bitmap.window_iter_set t ~off:64 ~len:64 (fun i -> seen := i :: !seen);
  check "iteration yields window-relative offsets" true (!seen = [ 6 ])

(* --- Mem.alias: the physical-page indirection --- *)

let test_alias_mechanics () =
  let mem = Mem.create () in
  let base = Mem.mmap mem (4 * page) in
  let src = base and dst = base + (2 * page) in
  Mem.fill mem ~addr:src ~len:16 'S';
  Mem.fill mem ~addr:(dst + 100) ~len:16 'D';
  let mapped_before = Mem.mapped_bytes mem in
  let touched_before = Mem.touched_pages mem in
  check "distinct backing before" true
    (Mem.backing_page mem src <> Mem.backing_page mem dst);
  Mem.alias mem ~src ~dst ~live:[ (100, 16) ];
  check "shared backing after" true
    (Mem.backing_page mem src = Mem.backing_page mem dst);
  check_int "one backing page retired" 1 (Mem.meshed_pages mem);
  check_int "mapped shrinks by a page" (mapped_before - page) (Mem.mapped_bytes mem);
  check_int "touched pages collapse to one" (touched_before - 1)
    (Mem.touched_pages mem);
  (* Both pages' live bytes remain visible at their own virtual addresses. *)
  check "src bytes intact" true
    (Mem.read_bytes mem ~addr:src ~len:16 = String.make 16 'S');
  check "dst live bytes merged across" true
    (Mem.read_bytes mem ~addr:(dst + 100) ~len:16 = String.make 16 'D');
  (* The two virtual pages now alias one store: a write through one is
     visible through the other at the same page offset.  (The heap's
     masked-slot discipline exists to keep live objects out of each
     other's way; the substrate itself genuinely shares the page.) *)
  Mem.write8 mem (dst + 300) 0x7E;
  check_int "write via dst, read via src" 0x7E (Mem.read8 mem (src + 300));
  (* A 64-bit access straddling out of the aliased page takes the
     page-run path and still reads back exactly. *)
  Mem.write64 mem (dst + page - 4) 0x0102030405060708;
  check "straddling word round-trips" true
    (Mem.read64 mem (dst + page - 4) = 0x0102030405060708);
  (* Chained meshing: the survivor's backing page may accept further
     pages (refcount > 1 on src's side is legal; only dst must be
     unshared). *)
  Mem.alias mem ~src ~dst:(base + (3 * page)) ~live:[];
  check_int "chained mesh retires a second page" 2 (Mem.meshed_pages mem);
  check "third page shares the same backing" true
    (Mem.backing_page mem (base + (3 * page)) = Mem.backing_page mem src)

let test_alias_validation () =
  let mem = Mem.create () in
  let base = Mem.mmap mem (4 * page) in
  check "unaligned dst" true (rejects (fun () ->
      Mem.alias mem ~src:base ~dst:(base + page + 1) ~live:[]));
  check "same page" true (rejects (fun () ->
      Mem.alias mem ~src:base ~dst:base ~live:[]));
  let other = Mem.mmap mem page in
  check "cross-segment" true (rejects (fun () ->
      Mem.alias mem ~src:base ~dst:other ~live:[]));
  check "live range past the page end" true (rejects (fun () ->
      Mem.alias mem ~src:base ~dst:(base + page) ~live:[ (page - 8, 16) ]));
  Mem.protect mem ~addr:(base + page) ~len:page Mem.Read_only;
  check "non-writable page" true (rejects (fun () ->
      Mem.alias mem ~src:base ~dst:(base + page) ~live:[]));
  Mem.protect mem ~addr:(base + page) ~len:page Mem.Read_write;
  Mem.alias mem ~src:base ~dst:(base + page) ~live:[];
  check "already-shared dst" true (rejects (fun () ->
      Mem.alias mem ~src:(base + (2 * page)) ~dst:(base + page) ~live:[]))

let test_meshed_protection_stays_virtual () =
  (* Page protection is a property of the virtual page, not the shared
     backing store: protecting one meshed page must not affect its buddy
     — the exact-fault semantics the simulation promises. *)
  let mem = Mem.create () in
  let base = Mem.mmap mem (2 * page) in
  Mem.alias mem ~src:base ~dst:(base + page) ~live:[];
  Mem.protect mem ~addr:(base + page) ~len:page Mem.Read_only;
  check "write via protected alias faults" true
    (faults (fun () -> Mem.write8 mem (base + page) 1));
  Mem.write8 mem base 9;
  check_int "buddy stays writable; bytes flow through" 9
    (Mem.read8 mem (base + page))

(* --- the heap's SplitMesher --- *)

let heap_with ?(heap_size = 24 lsl 20) ?(seed = 7) ?mesh_threshold ~mesh () =
  let mem = Mem.create () in
  let heap =
    Heap.create ~config:(Config.v ~heap_size ~seed ~mesh ?mesh_threshold ()) mem
  in
  (mem, heap)

let test_heap_mesh_preserves_live_bytes () =
  let mem, heap = heap_with ~mesh:false () in
  let objs =
    Array.init 512 (fun i -> (i, heap_malloc heap 64))
  in
  Array.iter
    (fun (i, p) -> Mem.fill mem ~addr:p ~len:64 (Char.chr (33 + (i mod 64))))
    objs;
  let survivors =
    List.filter
      (fun (i, p) ->
        if i mod 4 <> 0 then begin heap_free heap p; false end else true)
      (Array.to_list objs)
  in
  let meshed = Heap.mesh heap in
  check "an explicit pass meshes a churned region" true (meshed > 0);
  check_int "heap.meshes accumulates" meshed (Heap.meshes heap);
  check_int "mem agrees on retired pages" meshed (Mem.meshed_pages mem);
  let intact (i, p) =
    Mem.read_bytes mem ~addr:p ~len:64 = String.make 64 (Char.chr (33 + (i mod 64)))
  in
  check "every survivor's bytes intact after meshing" true
    (List.for_all intact survivors);
  (* The allocator stays sound on the meshed region: fresh allocations
     must avoid masked slots and leave survivors untouched. *)
  let fresh = List.init 256 (fun _ -> heap_malloc heap 64) in
  List.iter (fun p -> Mem.fill mem ~addr:p ~len:64 '!') fresh;
  check "survivors survive post-mesh allocation churn" true
    (List.for_all intact survivors);
  (* And freeing a survivor on a meshed page is still a valid free. *)
  let ignored_before = (Heap.stats heap).Dh_alloc.Stats.ignored_frees in
  List.iter (fun (_, p) -> heap_free heap p) survivors;
  check_int "survivor frees validate" ignored_before
    (Heap.stats heap).Dh_alloc.Stats.ignored_frees

(* A dense region, where half-full pages often share slot positions:
   the mesher must still pair only disjoint pages, and the heap keeps
   every invariant {!Heap.invariants} checks. *)
let test_dense_mesh_keeps_invariants () =
  let mem, heap = heap_with ~heap_size:(12 * 16 * page) ~mesh:false () in
  let fill (i, p) = Mem.fill mem ~addr:p ~len:64 (Char.chr (33 + (i mod 64))) in
  let intact (i, p) =
    Mem.read_bytes mem ~addr:p ~len:64 = String.make 64 (Char.chr (33 + (i mod 64)))
  in
  let objs = List.init 480 (fun i -> (i, heap_malloc heap 64)) in
  List.iter fill objs;
  let survivors =
    List.filter (fun (i, p) -> i mod 4 = 0 || (heap_free heap p; false)) objs
  in
  Heap.invariants heap;
  check "a dense churned region meshes" true (Heap.mesh heap > 0);
  Heap.invariants heap;
  let fresh = List.init 200 (fun i -> (i, heap_malloc heap 64)) in
  List.iter fill fresh;
  Heap.invariants heap;
  check "live bytes intact" true (List.for_all intact (survivors @ fresh))

let test_mesh_config_without_trigger_changes_nothing () =
  (* Meshing enabled but never triggered must be invisible: same seed,
     same allocation sequence, byte-identical addresses (the mesh-off
     purity bar — the mesher may not perturb the allocation RNG). *)
  let _, a = heap_with ~mesh:false () in
  let _, b = heap_with ~mesh:true ~mesh_threshold:(1 lsl 40) () in
  let sizes = List.init 400 (fun i -> 8 + (i * 13 mod 2048)) in
  let pa = List.map (heap_malloc a) sizes and pb = List.map (heap_malloc b) sizes in
  Alcotest.(check (list int)) "identical placements" pa pb;
  List.iteri
    (fun i p -> if p <> Allocator.null && i mod 3 = 0 then heap_free a p)
    pa;
  List.iteri
    (fun i p -> if p <> Allocator.null && i mod 3 = 0 then heap_free b p)
    pb;
  let qa = List.map (heap_malloc a) sizes and qb = List.map (heap_malloc b) sizes in
  Alcotest.(check (list int)) "identical after churn" qa qb

(* --- differential equivalence: meshing is program-invisible --- *)

type op = Alloc of int | Free of int | Mesh

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 10 120)
      (frequency
         [
           (6, map (fun s -> Alloc (8 + (s mod 2048))) nat);
           (3, map (fun i -> Free i) nat);
           (1, return Mesh);
         ]))

let prop_mesh_differential =
  QCheck.Test.make ~count:60
    ~name:"differential: mesh-on twin has identical program-visible bytes"
    (QCheck.make gen_ops)
    (fun ops ->
      let mem_a, heap_a = heap_with ~mesh:false ~seed:11 () in
      let mem_b, heap_b = heap_with ~mesh:false ~seed:11 () in
      let live = ref [] in
      let id = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Alloc sz -> (
            let b = heap_malloc heap_b sz in
            let a = heap_malloc heap_a sz in
            (* A NULL on one side only is a divergence. *)
            if a = Allocator.null || b = Allocator.null then (if a <> b then ok := false)
            else begin
              incr id;
              let c = Char.chr (33 + (!id * 7 mod 90)) in
              Mem.fill mem_a ~addr:a ~len:sz c;
              Mem.fill mem_b ~addr:b ~len:sz c;
              live := (a, b, sz, c) :: !live
            end)
          | Free k -> (
            match !live with
            | [] -> ()
            | l ->
              let i = k mod List.length l in
              let a, b, _, _ = List.nth l i in
              heap_free heap_a a;
              heap_free heap_b b;
              live := List.filteri (fun j _ -> j <> i) l)
          | Mesh ->
            ignore (Heap.mesh heap_b);
            (* Meshing keeps DieHard's invariants, buddies disjoint included. *)
            Heap.invariants heap_b))
        ops;
      Heap.invariants heap_a;
      Heap.invariants heap_b;
      !ok
      && List.for_all
           (fun (a, b, sz, c) ->
             let want = String.make sz c in
             Mem.read_bytes mem_a ~addr:a ~len:sz = want
             && Mem.read_bytes mem_b ~addr:b ~len:sz = want)
           !live)

let test_driver_checksum_mesh_invariant () =
  (* The §4.5 bench's contract, as a test: same profile, same seed, mesh
     on vs off — identical checksum and allocation-failure pattern. *)
  let profile =
    match Profile.find "espresso" with
    | Some p -> Profile.scale p ~factor:0.05
    | None -> Alcotest.fail "espresso profile missing"
  in
  let heap_size = max (Driver.heap_size_for profile) (24 lsl 20) in
  let leg ~mesh =
    let mem, heap = heap_with ~heap_size ~seed:5 ~mesh ~mesh_threshold:(64 lsl 10) () in
    ignore mem;
    let r = Driver.run profile (Heap.allocator heap) in
    (r.Driver.checksum, r.Driver.failed_allocations, Heap.meshes heap)
  in
  let sum_off, fail_off, m0 = leg ~mesh:false in
  let sum_on, fail_on, m1 = leg ~mesh:true in
  check_int "mesh-off heap never meshes" 0 m0;
  check "mesh-on heap actually meshed" true (m1 > 0);
  check_int "identical checksum" sum_off sum_on;
  check_int "identical failure pattern" fail_off fail_on;
  (* The space bench's frontier legs, at the factor its quick run uses. *)
  List.iter
    (fun name ->
      let leg ~mesh =
        let r, heap = Dh_bench.Space.mesh_leg ~factor:0.2 ~mesh name in
        (r.Driver.checksum, r.Driver.failed_allocations, Heap.meshes heap)
      in
      let sum_off, fail_off, _ = leg ~mesh:false in
      let sum_on, fail_on, meshes = leg ~mesh:true in
      check (name ^ ": mesh-on heap actually meshed") true (meshes > 0);
      check_int (name ^ ": identical checksum") sum_off sum_on;
      check_int (name ^ ": identical failure pattern") fail_off fail_on)
    Dh_bench.Space.profiles

let test_fault_classification_mesh_invariant () =
  (* A program that churns enough to mesh and then commits a wild read:
     the fault must classify identically with meshing on and off. *)
  let program =
    Program.make ~name:"wild" (fun ctx ->
        let a = ctx.Program.alloc in
        let ps = List.init 600 (fun i -> Allocator.malloc_exn a (8 + (8 * (i mod 8)))) in
        List.iteri (fun i p -> if i mod 2 = 0 then a.Allocator.free p) ps;
        ignore (Mem.read8 a.Allocator.mem 0))
  in
  let run ~mesh =
    let _, heap =
      heap_with ~heap_size:(12 * 256 * 1024) ~seed:9 ~mesh
        ~mesh_threshold:(4 lsl 10) ()
    in
    Program.run program (Heap.allocator heap)
  in
  let off = (run ~mesh:false).Process.outcome in
  let on = (run ~mesh:true).Process.outcome in
  check "identical fault classification" true (off = on);
  check "and it is a memory fault" true
    (match on with Process.Crashed _ -> true | _ -> false)

let test_replicated_fingerprint_mesh_invariant () =
  (* Replica voting with meshing on must produce the same agreed output
     as with meshing off: the fingerprint the voter compares is
     program-visible bytes only. *)
  let program =
    Program.make ~name:"churn" (fun ctx ->
        let a = ctx.Program.alloc in
        let rec loop i acc =
          if i = 0 then acc
          else begin
            let p = Allocator.malloc_exn a (16 + (i mod 48)) in
            Mem.write64 a.Allocator.mem p (i * 31);
            let acc = acc + Mem.read64 a.Allocator.mem p in
            if i mod 2 = 0 then a.Allocator.free p;
            loop (i - 1) acc
          end
        in
        Process.Out.print_string ctx.Program.out (string_of_int (loop 4000 0)))
  in
  let run ~mesh =
    Diehard.Replicated.run
      ~config:
        (Config.v ~heap_size:(12 * 256 * 1024) ~mesh ~mesh_threshold:(8 lsl 10) ())
      ~replicas:3 program
  in
  let off = run ~mesh:false and on = run ~mesh:true in
  check "mesh-off replicas agree" true
    (off.Diehard.Replicated.verdict = Diehard.Replicated.Agreed);
  check "mesh-on replicas agree" true
    (on.Diehard.Replicated.verdict = Diehard.Replicated.Agreed);
  Alcotest.(check string) "identical replica fingerprint"
    off.Diehard.Replicated.output on.Diehard.Replicated.output

let suite =
  [
    Alcotest.test_case "bitmap set algebra" `Quick test_bitmap_algebra;
    Alcotest.test_case "bitmap page windows" `Quick test_bitmap_windows;
    Alcotest.test_case "alias mechanics" `Quick test_alias_mechanics;
    Alcotest.test_case "alias validation" `Quick test_alias_validation;
    Alcotest.test_case "meshed protection stays virtual" `Quick
      test_meshed_protection_stays_virtual;
    Alcotest.test_case "heap mesh preserves live bytes" `Quick
      test_heap_mesh_preserves_live_bytes;
    Alcotest.test_case "mesh config without trigger changes nothing" `Quick
      test_mesh_config_without_trigger_changes_nothing;
    QCheck_alcotest.to_alcotest prop_mesh_differential;
    Alcotest.test_case "driver checksum mesh-invariant" `Quick
      test_driver_checksum_mesh_invariant;
    Alcotest.test_case "fault classification mesh-invariant" `Quick
      test_fault_classification_mesh_invariant;
    Alcotest.test_case "replica fingerprint mesh-invariant" `Quick
      test_replicated_fingerprint_mesh_invariant;
    Alcotest.test_case "dense mesh keeps heap invariants" `Quick
      test_dense_mesh_keeps_invariants;
  ]
