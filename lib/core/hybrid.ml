module Allocator = Dh_alloc.Allocator
module Stats = Dh_alloc.Stats

(* The largest request served by DieHard. *)
let cutoff = 256

type t = {
  heap : Heap.t;
  backing : Dh_alloc.Freelist.t;
  backing_alloc : Allocator.t;
  heap_alloc : Allocator.t;
  stats : Stats.t;
}

let create ?(config = Config.default) mem =
  let heap = Heap.create ~config mem in
  let backing = Dh_alloc.Freelist.create mem in
  {
    heap;
    backing;
    backing_alloc = Dh_alloc.Freelist.allocator backing;
    heap_alloc = Heap.allocator heap;
    stats = Stats.create ();
  }

let protected_heap t = t.heap

let is_protected t addr = t.heap_alloc.Allocator.owns addr

let malloc t sz =
  let result =
    if sz > 0 && sz <= cutoff then t.heap_alloc.Allocator.malloc sz
    else t.backing_alloc.Allocator.malloc sz
  in
  if result = Allocator.null then
    t.stats.Stats.failed_mallocs <- t.stats.Stats.failed_mallocs + 1
  else begin
    (* mirror the reservation in the hybrid's own accounting *)
    match
      if is_protected t result then t.heap_alloc.Allocator.find_object result
      else t.backing_alloc.Allocator.find_object result
    with
    | Some { Allocator.size; _ } -> Stats.on_malloc t.stats ~requested:sz ~reserved:size
    | None -> Stats.on_malloc t.stats ~requested:sz ~reserved:sz
  end;
  result

(* Frees route by ownership: a pointer into the protected regions gets
   DieHard's validated free, anything else goes to the freelist (whose
   misbehaviour on bad pointers is then the baseline's, by design). *)
let free t addr =
  if addr = Allocator.null then ()
  else if is_protected t addr then begin
    let before = t.heap_alloc.Allocator.stats.Stats.frees in
    t.heap_alloc.Allocator.free addr;
    if t.heap_alloc.Allocator.stats.Stats.frees > before then
      (* accepted: mirror it (reserved size from the heap's class) *)
      match t.heap_alloc.Allocator.find_object addr with
      | Some { Allocator.size; _ } -> Stats.on_free t.stats ~reserved:size
      | None -> ()
    else t.stats.Stats.ignored_frees <- t.stats.Stats.ignored_frees + 1
  end
  else begin
    (match t.backing_alloc.Allocator.find_object addr with
    | Some { Allocator.size; allocated = true; _ } ->
      Stats.on_free t.stats ~reserved:size
    | Some _ | None -> ());
    t.backing_alloc.Allocator.free addr
  end

let find_object t addr =
  if is_protected t addr then t.heap_alloc.Allocator.find_object addr
  else t.backing_alloc.Allocator.find_object addr

let owns t addr =
  t.heap_alloc.Allocator.owns addr || t.backing_alloc.Allocator.owns addr

let allocator t =
  {
    Allocator.name = Printf.sprintf "diehard-hybrid(<=%dB)" cutoff;
    mem = t.heap_alloc.Allocator.mem;
    malloc = malloc t;
    free = free t;
    find_object = find_object t;
    owns = owns t;
    register_roots = None;
    stats = t.stats;
  }
