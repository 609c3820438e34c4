(* Quickstart: the DieHard heap as a library.

   Builds a simulated address space, puts a DieHard heap on it, and
   walks through the paper's core mechanisms: randomized placement,
   the 1/M threshold, validated frees, and overflow masking.

     dune exec examples/quickstart.exe *)

module Mem = Dh_mem.Mem
module Allocator = Dh_alloc.Allocator
module Heap = Diehard.Heap
module Config = Diehard.Config

let () =
  (* A DieHard heap: 12 power-of-two size classes, each region at most
     1/M full, metadata fully out-of-band. *)
  let mem = Mem.create () in
  let config = Config.v ~heap_size:(12 * 256 * 1024) ~multiplier:2. ~seed:42 () in
  let heap = Heap.create ~config mem in
  let alloc = Heap.allocator heap in

  (* 1. Randomized placement: consecutive allocations land in random
     slots of their size class's region. *)
  let a = Allocator.malloc_exn alloc 64 in
  let b = Allocator.malloc_exn alloc 64 in
  let c = Allocator.malloc_exn alloc 64 in
  Printf.printf "three 64-byte objects: 0x%x 0x%x 0x%x\n" a b c;
  Printf.printf "  (not adjacent: gaps of %d and %d bytes)\n\n" (abs (b - a)) (abs (c - b));

  (* 2. Objects are usable memory in the simulated address space. *)
  Mem.write64 mem a 42;
  Mem.write64 mem (a + 56) 43;
  Printf.printf "stored and loaded: %d %d\n\n" (Mem.read64 mem a) (Mem.read64 mem (a + 56));

  (* 3. A modest buffer overflow usually lands on free space: here we
     write one object's worth past [a] and check what it hit. *)
  (match Heap.find_object heap (a + 64) with
  | Some { Allocator.allocated = false; _ } ->
    Printf.printf "overflow past 'a' would hit a FREE slot (masked)\n"
  | Some { Allocator.allocated = true; _ } ->
    Printf.printf "overflow past 'a' would hit a live object (unlucky: p = fullness)\n"
  | None -> Printf.printf "overflow past 'a' runs off the region\n");
  Printf.printf "  Theorem 1 says: P(mask) = 1 - fullness = %.4f here\n\n"
    (1. -. Heap.region_fullness heap ~class_:3);

  (* 4. Erroneous frees are validated and ignored. *)
  alloc.Allocator.free b;
  alloc.Allocator.free b;  (* double free: ignored *)
  alloc.Allocator.free (a + 4);  (* misaligned interior pointer: ignored *)
  alloc.Allocator.free 0xDEADBEEF;  (* wild pointer: ignored *)
  Printf.printf "double/invalid/wild frees: %d ignored, heap intact (%d live)\n\n"
    alloc.Allocator.stats.Dh_alloc.Stats.ignored_frees
    alloc.Allocator.stats.Dh_alloc.Stats.live_objects;

  (* 5. The 1/M threshold: a size class never fills past 1/M, so malloc
     returns NULL (address 0) rather than risking the probabilistic
     bound. *)
  let rec fill n =
    if alloc.Allocator.malloc 16384 = Allocator.null then n else fill (n + 1)
  in
  let got = fill 0 in
  Printf.printf "16KB class capacity %d, threshold hit after %d allocations\n"
    (Heap.region_capacity heap ~class_:11) got;

  (* 6. Large objects get their own mappings with guard pages. *)
  let big = Allocator.malloc_exn alloc 100_000 in
  (match Mem.read8 mem (big - 1) with
  | exception Dh_mem.Fault.Error _ ->
    Printf.printf "large object at 0x%x is protected by guard pages\n" big
  | _ -> assert false);
  alloc.Allocator.free big;

  (* 7. The layout at a glance: live objects scatter across each
     region instead of clustering at the front. *)
  Printf.printf "\nheap layout (each cell is a bucket of slots; '.'=empty):\n%s"
    (Format.asprintf "%a" Heap.pp_layout heap);
  Printf.printf "\nstats: %s\n"
    (Format.asprintf "%a" Dh_alloc.Stats.pp alloc.Allocator.stats)
