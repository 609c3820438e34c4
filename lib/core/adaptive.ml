module Mem = Dh_mem.Mem
module Mwc = Dh_rng.Mwc
module Size_class = Dh_alloc.Size_class
module Bitmap = Dh_alloc.Bitmap
module Stats = Dh_alloc.Stats
module Allocator = Dh_alloc.Allocator

type miniheap = {
  base : int;
  capacity : int;  (* slots *)
  bitmap : Bitmap.t;
  mutable in_use : int;
}

type class_state = {
  class_ : int;
  mutable miniheaps : miniheap list;  (* newest first *)
  mutable total_capacity : int;
  mutable total_in_use : int;
  mutable next_objects : int;  (* capacity of the next miniheap to map *)
}

(* M: each class stays at most half full. *)
let multiplier = 2

(* Capacity of each class's first miniheap. *)
let initial_objects = 64

type t = {
  mem : Mem.t;
  min_headroom : int;
  rng : Mwc.t;
  classes : class_state array;
  large : Heap.large;
  stats : Stats.t;
}

let create ?(min_headroom = 0) ?(seed = 1) mem =
  if min_headroom < 0 then invalid_arg "Adaptive.create: negative headroom";
  {
    mem;
    min_headroom;
    rng = Mwc.create ~seed;
    classes =
      Array.init Size_class.count (fun class_ ->
          {
            class_;
            miniheaps = [];
            total_capacity = 0;
            total_in_use = 0;
            next_objects = initial_objects;
          });
    large = Heap.large_table ();
    stats = Stats.create ();
  }

(* Map a new miniheap for the class, doubling the growth target. *)
let grow t cls =
  let capacity = cls.next_objects in
  cls.next_objects <- capacity * 2;
  let len = capacity * Size_class.size cls.class_ in
  let base = Mem.mmap t.mem len in
  let mh = { base; capacity; bitmap = Bitmap.create capacity; in_use = 0 } in
  cls.miniheaps <- mh :: cls.miniheaps;
  cls.total_capacity <- cls.total_capacity + capacity

(* Pick the miniheap containing the class-global slot index and return
   (miniheap, local index). *)
let locate_slot cls index =
  let rec go mhs index =
    match mhs with
    | [] -> invalid_arg "Adaptive.locate_slot: index out of range"
    | mh :: rest -> if index < mh.capacity then (mh, index) else go rest (index - mh.capacity)
  in
  go cls.miniheaps index

(* --- small objects --- *)

let malloc_small t sz class_ =
  let cls = t.classes.(class_) in
  (* Grow until the class can absorb one more object below 1/M and still
     keep the configured free headroom (the protection dial). *)
  while
    (cls.total_in_use + 1) * multiplier > cls.total_capacity
    || cls.total_capacity - (cls.total_in_use + 1) < t.min_headroom
  do
    grow t cls
  done;
  let size = Size_class.size class_ in
  let rec probe () =
    t.stats.Stats.probes <- t.stats.Stats.probes + 1;
    let index = Mwc.below t.rng cls.total_capacity in
    let mh, local = locate_slot cls index in
    if Bitmap.get mh.bitmap local then probe () else (mh, local)
  in
  let mh, local = probe () in
  Bitmap.set mh.bitmap local;
  mh.in_use <- mh.in_use + 1;
  cls.total_in_use <- cls.total_in_use + 1;
  let addr = mh.base + (local * size) in
  Stats.on_malloc t.stats ~requested:sz ~reserved:size;
  Some addr

let malloc t sz =
  if sz <= 0 then None
  else
    match Size_class.of_size sz with
    | Some class_ -> malloc_small t sz class_
    | None -> Some (Heap.large_malloc t.large t.mem t.stats sz)

let miniheap_containing t addr =
  let found = ref None in
  Array.iter
    (fun cls ->
      if !found = None then
        List.iter
          (fun mh ->
            if
              !found = None && addr >= mh.base
              && addr < mh.base + (mh.capacity * Size_class.size cls.class_)
            then found := Some (cls, mh))
          cls.miniheaps)
    t.classes;
  !found

let free t addr =
  if addr = Allocator.null then ()
  else
    match miniheap_containing t addr with
    | Some (cls, mh) ->
      let size = Size_class.size cls.class_ in
      let offset = addr - mh.base in
      if Size_class.is_aligned ~offset ~class_:cls.class_ then begin
        let local = offset / size in
        if Bitmap.get mh.bitmap local then begin
          Bitmap.clear mh.bitmap local;
          mh.in_use <- mh.in_use - 1;
          cls.total_in_use <- cls.total_in_use - 1;
          Stats.on_free t.stats ~reserved:size
        end
        else t.stats.Stats.ignored_frees <- t.stats.Stats.ignored_frees + 1
      end
      else t.stats.Stats.ignored_frees <- t.stats.Stats.ignored_frees + 1
    | None -> ignore (Heap.large_free t.large t.mem t.stats addr)

let find_object t addr =
  match miniheap_containing t addr with
  | Some (cls, mh) ->
    let size = Size_class.size cls.class_ in
    let local = (addr - mh.base) / size in
    Some
      {
        Allocator.base = mh.base + (local * size);
        size;
        allocated = Bitmap.get mh.bitmap local;
      }
  | None -> Heap.large_find t.large addr

let owns t addr =
  Option.is_some (miniheap_containing t addr)
  || Option.is_some (Heap.large_find t.large addr)

let allocator t =
  {
    Allocator.name = "diehard-adaptive";
    mem = t.mem;
    malloc = malloc t;
    free = free t;
    find_object = find_object t;
    owns = owns t;
    register_roots = None;
    stats = t.stats;
  }

let class_capacity t ~class_ = t.classes.(class_).total_capacity
let class_in_use t ~class_ = t.classes.(class_).total_in_use
let miniheap_count t ~class_ = List.length t.classes.(class_).miniheaps

let mapped_small_bytes t =
  Array.fold_left
    (fun acc cls ->
      List.fold_left
        (fun acc mh -> acc + (mh.capacity * Size_class.size cls.class_))
        acc cls.miniheaps)
    0 t.classes
