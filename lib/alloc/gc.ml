module Mem = Dh_mem.Mem

(* Chunk layout: a header word immediately before the payload.
     header = size lor flags, size = total chunk size including header.
     bit 0: allocated, bit 1: marked (used only during collection).
   Headers are in-band on purpose — see the .mli. *)

let header_size = 8
let min_chunk = 16
let allocated_bit = 1
let mark_bit = 2

type arena = { base : int; len : int; mutable top : int }

type t = {
  mem : Mem.t;
  arena_size : int;
  heap_limit : int;
  mutable arenas : arena list;
  mutable arena_bytes : int;
  mutable free_lists : (int * int) list array;  (* (base, size) per class *)
  mutable root_providers : (unit -> int list) list;
  stats : Stats.t;
}

let free_class_count = Size_class.count + 1

let free_class_of size =
  match Size_class.of_size (max 1 (size - header_size)) with
  | Some c -> c
  | None -> free_class_count - 1

let create ?(arena_size = 1 lsl 20) ?(heap_limit = 256 lsl 20) mem =
  {
    mem;
    arena_size;
    heap_limit;
    arenas = [];
    arena_bytes = 0;
    free_lists = Array.make free_class_count [];
    root_providers = [];
    stats = Stats.create ();
  }

let register_roots t f = t.root_providers <- f :: t.root_providers

let round8 n = (n + 7) land lnot 7

let read_header t addr = Mem.read64 t.mem addr
let write_header t addr v = Mem.write64 t.mem addr v

let chunk_size h = h land lnot 7
let is_allocated h = h land allocated_bit <> 0
let is_marked h = h land mark_bit <> 0

let arena_of t addr =
  List.find_opt (fun a -> addr >= a.base && addr < a.base + a.len) t.arenas

let owns t addr = Option.is_some (arena_of t addr)

(* Walk an arena's chunks; stop silently on an insane header (the heap is
   corrupt — subsequent behaviour is undefined but the harness survives). *)
let walk_arena t arena f =
  let rec go c =
    if c + header_size <= arena.top then begin
      let h = read_header t c in
      let size = chunk_size h in
      if size >= min_chunk && c + size <= arena.top then begin
        f c h size;
        go (c + size)
      end
    end
  in
  go arena.base

let find_object t addr =
  match arena_of t addr with
  | None -> None
  | Some arena ->
    let found = ref None in
    (walk_arena t arena (fun c h size ->
         if !found = None && addr >= c + header_size && addr < c + size then
           found :=
             Some
               {
                 Allocator.base = c + header_size;
                 size = size - header_size;
                 allocated = is_allocated h;
               });
     !found)

(* --- collection --- *)

let mark_object t worklist c h =
  if is_allocated h && not (is_marked h) then begin
    write_header t c (h lor mark_bit);
    Queue.add c worklist
  end

(* Snapshot of every chunk, sorted by base, rebuilt once per collection so
   the per-word conservative test is a binary search rather than an arena
   walk.  The snapshot is taken from in-band headers, so corruption still
   propagates into the collection (undefined behaviour preserved). *)
let build_index t =
  let chunks = ref [] in
  List.iter (fun arena -> walk_arena t arena (fun c _ size -> chunks := (c, size) :: !chunks)) t.arenas;
  let index = Array.of_list !chunks in
  Array.sort (fun (a, _) (b, _) -> compare a b) index;
  index

(* Conservative test: does [v] point into a chunk?  Interior pointers
   count, but pointers into the header word itself do not. *)
let chunk_containing_idx index v =
  let n = Array.length index in
  (* largest base <= v *)
  let rec search lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let base, size = index.(mid) in
      if base > v then search lo (mid - 1)
      else if v < base + size then
        if v >= base + header_size then Some base else None
      else search (mid + 1) hi
    end
  in
  search 0 (n - 1)

let mark t =
  let index = build_index t in
  let worklist = Queue.create () in
  let mark_value v =
    match chunk_containing_idx index v with
    | Some c -> mark_object t worklist c (read_header t c)
    | None -> ()
  in
  (* 1. mark from roots *)
  List.iter (fun provider -> List.iter mark_value (provider ())) t.root_providers;
  (* 2. trace: scan every marked object's payload for heap words.  The
     payload is pulled with one bulk read per object (one validation and
     blit instead of a checked access per word); the conservative word
     test then runs on the local copy. *)
  while not (Queue.is_empty worklist) do
    let c = Queue.pop worklist in
    let h = read_header t c in
    let size = chunk_size h in
    let payload = c + header_size in
    let words = (size - header_size) / 8 in
    if words > 0 then begin
      let bytes = Mem.read_bytes t.mem ~addr:payload ~len:(words * 8) in
      for i = 0 to words - 1 do
        mark_value (Int64.to_int (String.get_int64_le bytes (8 * i)))
      done
    end
  done

let sweep t =
  (* 3. sweep: unmarked allocated chunks become free (accounting them),
     clear mark bits, and coalesce runs of adjacent free chunks so
     fragmentation does not defeat large requests. *)
  t.free_lists <- Array.make free_class_count [];
  let add_free c size =
    write_header t c size;
    let cls = free_class_of size in
    t.free_lists.(cls) <- (c, size) :: t.free_lists.(cls)
  in
  List.iter
    (fun arena ->
      let run_base = ref 0 in
      let run_size = ref 0 in
      let flush_run ~at_top =
        if !run_size > 0 then
          if at_top && !run_base + !run_size = arena.top then
            (* the trailing free run rejoins the wilderness *)
            arena.top <- !run_base
          else add_free !run_base !run_size;
        run_size := 0
      in
      walk_arena t arena (fun c h size ->
          let now_free =
            if is_allocated h then
              if is_marked h then begin
                write_header t c (size lor allocated_bit);
                false
              end
              else begin
                Stats.on_free t.stats ~reserved:(size - header_size);
                true
              end
            else true
          in
          if now_free then begin
            if !run_size = 0 then run_base := c;
            run_size := !run_size + size
          end
          else flush_run ~at_top:false);
      flush_run ~at_top:true)
    t.arenas

let collect t =
  t.stats.Stats.gc_collections <- t.stats.Stats.gc_collections + 1;
  let obs = Mem.recorder t.mem in
  Dh_obs.Recorder.span obs "gc.collect" (fun () ->
      Dh_obs.Recorder.span obs "gc.mark" (fun () -> mark t);
      Dh_obs.Recorder.span obs "gc.sweep" (fun () -> sweep t))

(* --- allocation --- *)

let try_free_lists t need =
  let rec search cls =
    if cls >= free_class_count then None
    else begin
      let rec scan acc = function
        | [] -> None
        | (c, size) :: rest when size >= need ->
          t.free_lists.(cls) <- List.rev_append acc rest;
          Some (c, size)
        | entry :: rest ->
          t.stats.Stats.probes <- t.stats.Stats.probes + 1;
          scan (entry :: acc) rest
      in
      match scan [] t.free_lists.(cls) with
      | Some found -> Some found
      | None -> search (cls + 1)
    end
  in
  match search (free_class_of need) with
  | None -> None
  | Some (c, size) ->
    (* split the tail back onto a free list when big enough *)
    if size - need >= min_chunk then begin
      let rest = c + need in
      let rest_size = size - need in
      write_header t rest rest_size;
      let cls = free_class_of rest_size in
      t.free_lists.(cls) <- (rest, rest_size) :: t.free_lists.(cls);
      write_header t c (need lor allocated_bit)
    end
    else write_header t c (size lor allocated_bit);
    Some (c + header_size)

(* Carve from any arena's wilderness (sweeps can return trailing space
   to old arenas' wildernesses, so all of them are candidates). *)
let carve t need =
  let rec go = function
    | [] -> None
    | arena :: rest ->
      if arena.top + need <= arena.base + arena.len then begin
        let c = arena.top in
        arena.top <- arena.top + need;
        write_header t c (need lor allocated_bit);
        Some (c + header_size)
      end
      else go rest
  in
  go t.arenas

let new_arena t need =
  let len = max t.arena_size (round8 need + Mem.page_size) in
  if t.arena_bytes + len > t.heap_limit then false
  else begin
    let base = Mem.mmap t.mem len in
    t.arenas <- { base; len; top = base } :: t.arenas;
    t.arena_bytes <- t.arena_bytes + len;
    true
  end

let malloc t sz =
  if sz < 0 then Allocator.null
  else begin
    let need = max min_chunk (round8 sz + header_size) in
    let attempt () =
      match try_free_lists t need with
      | Some p -> Some p
      | None -> carve t need
    in
    let result =
      match attempt () with
      | Some p -> Some p
      | None -> (
        collect t;
        match attempt () with
        | Some p -> Some p
        | None -> if new_arena t need then carve t need else None)
    in
    match result with
    | Some p ->
      Stats.on_malloc t.stats ~requested:sz ~reserved:(need - header_size);
      p
    | None ->
      t.stats.Stats.failed_mallocs <- t.stats.Stats.failed_mallocs + 1;
      Allocator.null
  end

(* free is a no-op: the collector decides liveness (BDW used as a "leak
   allocator", as the paper's comparison does). *)
let free t ptr =
  if ptr <> 0 then t.stats.Stats.ignored_frees <- t.stats.Stats.ignored_frees + 1

let live_objects t =
  let n = ref 0 in
  List.iter
    (fun arena -> walk_arena t arena (fun _ h _ -> if is_allocated h then incr n))
    t.arenas;
  !n

let allocator t =
  {
    Allocator.name = "gc-bdw";
    mem = t.mem;
    malloc = malloc t;
    free = free t;
    find_object = find_object t;
    owns = owns t;
    register_roots = Some (register_roots t);
    stats = t.stats;
  }
