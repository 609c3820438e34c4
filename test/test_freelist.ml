(* Tests for the Lea-style freelist baseline: correct allocation behaviour
   on well-behaved programs, and the characteristic *misbehaviour* on
   erroneous ones (in-band metadata corruption, LIFO reuse) that the
   paper's experiments depend on. *)

open Dh_alloc
module Mem = Dh_mem.Mem

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make ?variant ?arena_size ?heap_limit () =
  let mem = Mem.create () in
  let fl = Freelist.create ?variant ?arena_size ?heap_limit mem in
  (mem, fl, Freelist.allocator fl)

let malloc_exn a sz = Allocator.malloc_exn a sz

let test_basic_alloc_free () =
  let mem, _, a = make () in
  let p = malloc_exn a 100 in
  check "non-null" true (p <> 0);
  Mem.write64 mem p 0xABC;
  check_int "usable" 0xABC (Mem.read64 mem p);
  a.Allocator.free p;
  check_int "live objects" 0 a.Allocator.stats.Stats.live_objects

let test_allocations_disjoint () =
  let _, _, a = make () in
  let ptrs = List.init 100 (fun i -> (malloc_exn a (8 + (i mod 64)), 8 + (i mod 64))) in
  let rec pairwise = function
    | [] -> ()
    | (p, sz) :: rest ->
      List.iter
        (fun (q, qsz) ->
          check "objects disjoint" true (p + sz <= q || q + qsz <= p))
        rest;
      pairwise rest
  in
  pairwise ptrs

let test_payloads_are_writable_to_size () =
  let mem, _, a = make () in
  List.iter
    (fun sz ->
      let p = malloc_exn a sz in
      for i = 0 to sz - 1 do
        Mem.write8 mem (p + i) (i land 0xFF)
      done;
      for i = 0 to sz - 1 do
        check_int "payload intact" (i land 0xFF) (Mem.read8 mem (p + i))
      done)
    [ 1; 8; 17; 100; 4096; 100_000 ]

let test_reuse_is_lifo () =
  (* The property DieHard's dangling-pointer analysis contrasts against:
     a freed chunk is handed straight back. *)
  let _, _, a = make () in
  ignore (malloc_exn a 64);
  let p = malloc_exn a 64 in
  ignore (malloc_exn a 64);
  a.Allocator.free p;
  let q = malloc_exn a 64 in
  check_int "freed chunk reused immediately" p q

let test_split_reduces_waste () =
  let _, fl, a = make () in
  let p = malloc_exn a 1024 in
  a.Allocator.free p;
  let q = malloc_exn a 64 in
  check_int "small alloc carved from the freed chunk" p q;
  (* the remainder exists as a free chunk *)
  let free_chunks = ref 0 in
  Freelist.chunk_walk fl (fun ~base:_ ~size:_ ~allocated ->
      if not allocated then incr free_chunks);
  check "remainder exists" true (!free_chunks >= 1)

let test_coalesce_forward () =
  let _, fl, a = make () in
  let p = malloc_exn a 64 in
  let q = malloc_exn a 64 in
  let sentinel = malloc_exn a 64 in
  ignore sentinel;
  (* Free q first, then p: p should absorb q. *)
  a.Allocator.free q;
  a.Allocator.free p;
  let sizes = ref [] in
  Freelist.chunk_walk fl (fun ~base ~size ~allocated ->
      if (not allocated) && base + 8 = p then sizes := size :: !sizes);
  (match !sizes with
  | [ merged ] -> check "p absorbed q" true (merged >= 2 * 72)
  | _ -> Alcotest.fail "expected exactly one free chunk at p");
  (* And a 128-byte request is served from the merged chunk. *)
  let r = malloc_exn a 128 in
  check_int "merged chunk reused" p r

let test_find_object () =
  let _, _, a = make () in
  let p = malloc_exn a 100 in
  (match a.Allocator.find_object (p + 50) with
  | Some { Allocator.base; size; allocated } ->
    check_int "base" p base;
    check "size covers request" true (size >= 100);
    check "allocated" true allocated
  | None -> Alcotest.fail "interior pointer should resolve");
  a.Allocator.free p;
  match a.Allocator.find_object (p + 50) with
  | Some { Allocator.allocated; _ } -> check "freed" false allocated
  | None -> Alcotest.fail "chunk still exists after free"

let test_owns () =
  let _, _, a = make () in
  let p = malloc_exn a 64 in
  check "owns payload" true (a.Allocator.owns p);
  check "does not own NULL" false (a.Allocator.owns 0);
  check "does not own far address" false (a.Allocator.owns 0x7FFFFFFF)

let test_heap_limit () =
  let _, _, a = make ~arena_size:8192 ~heap_limit:16384 () in
  let rec exhaust n =
    if n > 1000 then n
    else
      if a.Allocator.malloc 1024 = Allocator.null then n else exhaust (n + 1)
  in
  let got = exhaust 0 in
  check "eventually NULL" true (got < 1000);
  check "some allocations succeeded" true (got > 4);
  check "failure recorded" true (a.Allocator.stats.Stats.failed_mallocs > 0)

let test_free_null_is_noop () =
  let _, _, a = make () in
  a.Allocator.free 0;
  check_int "nothing recorded" 0 a.Allocator.stats.Stats.frees

let test_grows_new_arena () =
  let _, _, a = make ~arena_size:8192 ~heap_limit:(1 lsl 20) () in
  (* First arena is 8 KB; allocating 3 x 4 KB must open another. *)
  let ps = List.init 3 (fun _ -> malloc_exn a 4000) in
  check "all distinct" true (List.length (List.sort_uniq compare ps) = 3)

(* --- the failure modes (undefined behaviour, observed concretely) --- *)

let test_overflow_corrupts_next_header () =
  let mem, fl, a = make () in
  let p = malloc_exn a 64 in
  let q = malloc_exn a 64 in
  (* q's header lives at q-8, immediately after p's 64-byte reserved
     area (plus rounding).  Overflow p by enough to smash it. *)
  (match a.Allocator.find_object p with
  | Some { Allocator.size; _ } ->
    for i = 0 to size + 7 do
      Mem.write8 mem (p + i) 0xFF
    done
  | None -> Alcotest.fail "p should exist");
  (* The chunk walk now sees garbage where q's header was. *)
  let sees_q = ref false in
  Freelist.chunk_walk fl (fun ~base ~size:_ ~allocated:_ ->
      if base + 8 = q then sees_q := true);
  check "q's header destroyed by the overflow" false !sees_q

let test_double_free_corrupts_freelist () =
  (* After a double free the same chunk sits in its bin twice; two
     subsequent mallocs of that size return the SAME address — live
     objects now alias, which is exactly the "undefined" outcome. *)
  let _, _, a = make () in
  let p = malloc_exn a 64 in
  ignore (malloc_exn a 64);
  a.Allocator.free p;
  a.Allocator.free p;
  let x = malloc_exn a 64 in
  let y = malloc_exn a 64 in
  check_int "double free makes two live objects alias" x y

let test_dangling_pointer_data_overwritten () =
  let mem, _, a = make () in
  let p = malloc_exn a 64 in
  Mem.write64 mem p 0x1111111111111111;
  a.Allocator.free p;
  (* The free itself overwrites the first words with list links; a fresh
     allocation then hands out the same memory. *)
  let q = malloc_exn a 64 in
  Mem.write64 mem q 0x2222222222222222;
  check "stale pointer sees new data" true (Mem.read64 mem p <> 0x1111111111111111)

let prop_random_ops_no_simulator_crash =
  (* Well-behaved random malloc/free sequences must never fault, and all
     live objects must remain disjoint. *)
  QCheck.Test.make ~name:"freelist: random valid workloads stay consistent" ~count:60
    QCheck.(list (pair (int_bound 300) bool))
    (fun ops ->
      let _, _, a = make () in
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
      (* disjointness of live objects *)
      let infos =
        List.map
          (fun p ->
            match a.Allocator.find_object p with
            | Some { Allocator.base; size; allocated } -> (base, size, allocated)
            | None -> (0, 0, false))
          !live
      in
      List.for_all (fun (_, _, alive) -> alive) infos
      &&
      let rec disjoint = function
        | [] -> true
        | (b, s, _) :: rest ->
          List.for_all (fun (b', s', _) -> b + s <= b' || b' + s' <= b) rest
          && disjoint rest
      in
      disjoint infos)

(* --- Windows variant --- *)

let test_windows_variant_first_fit () =
  let _, _, a = make ~variant:Freelist.Windows () in
  let p = malloc_exn a 64 in
  check "works" true (p <> 0);
  a.Allocator.free p;
  let q = malloc_exn a 64 in
  check_int "first fit finds the hole" p q

let test_windows_variant_slower_metadata () =
  (* The Windows stand-in performs more bookkeeping writes per op. *)
  let mem_w, _, aw = make ~variant:Freelist.Windows () in
  let mem_l, _, al = make ~variant:Freelist.Lea () in
  for _ = 1 to 100 do
    ignore (malloc_exn aw 64);
    ignore (malloc_exn al 64)
  done;
  check "windows variant writes more" true
    ((Mem.stats mem_w).Mem.writes > (Mem.stats mem_l).Mem.writes)

let suite =
  [
    Alcotest.test_case "basic alloc/free" `Quick test_basic_alloc_free;
    Alcotest.test_case "allocations disjoint" `Quick test_allocations_disjoint;
    Alcotest.test_case "payload usable" `Quick test_payloads_are_writable_to_size;
    Alcotest.test_case "LIFO reuse" `Quick test_reuse_is_lifo;
    Alcotest.test_case "splitting" `Quick test_split_reduces_waste;
    Alcotest.test_case "forward coalescing" `Quick test_coalesce_forward;
    Alcotest.test_case "find_object" `Quick test_find_object;
    Alcotest.test_case "owns" `Quick test_owns;
    Alcotest.test_case "heap limit" `Quick test_heap_limit;
    Alcotest.test_case "free NULL" `Quick test_free_null_is_noop;
    Alcotest.test_case "arena growth" `Quick test_grows_new_arena;
    Alcotest.test_case "overflow corrupts metadata" `Quick test_overflow_corrupts_next_header;
    Alcotest.test_case "double free corrupts freelist" `Quick test_double_free_corrupts_freelist;
    Alcotest.test_case "dangling data overwritten" `Quick test_dangling_pointer_data_overwritten;
    QCheck_alcotest.to_alcotest prop_random_ops_no_simulator_crash;
    Alcotest.test_case "windows first fit" `Quick test_windows_variant_first_fit;
    Alcotest.test_case "windows extra writes" `Quick test_windows_variant_slower_metadata;
  ]
