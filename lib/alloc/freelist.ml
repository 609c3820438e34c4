module Mem = Dh_mem.Mem

type variant = Lea | Windows

(* Chunk layout in simulated memory:

     chunk_base : header word = size lor flags   (size includes the header)
     chunk_base + 8 .. chunk_base + size - 1 : payload

   Free chunks additionally hold list links in their first two payload
   words:  [chunk_base+8] = next free chunk (0 = end),
           [chunk_base+16] = prev free chunk (0 = this is the bin head).
   Minimum chunk size is therefore 8 (header) + 16 (links) = 24, rounded to
   32 for alignment slack.  The allocated bit is bit 0 of the header (sizes
   are multiples of 8, so the low 3 bits are free for flags). *)

let header_size = 8
let min_chunk = 32
let allocated_bit = 1

type arena = {
  base : int;
  len : int;
  mutable top : int;  (* start of the wilderness (unused tail) *)
}

type t = {
  mem : Mem.t;
  variant : variant;
  arena_size : int;
  heap_limit : int;
  mutable arenas : arena list;  (* most recent first *)
  mutable arena_bytes : int;
  bins : int array;  (* head chunk address per bin; 0 = empty *)
  stats : Stats.t;
}

(* Bin for a chunk of total size [size]: small chunks map through the
   shared power-of-two classes; everything larger lands in the last bin.
   Both variants share the bin structure; the Windows variant's extra
   cost is its per-operation heap-header bookkeeping (see below). *)
let bin_count = Size_class.count + 1

let bin_of size =
  match Size_class.of_size (max 1 (size - header_size)) with
  | Some c -> c
  | None -> bin_count - 1

let create ?(variant = Lea) ?(arena_size = 1 lsl 20)
    ?(heap_limit = 256 lsl 20) mem =
  if arena_size < 4096 then invalid_arg "Freelist.create: arena_size too small";
  {
    mem;
    variant;
    arena_size;
    heap_limit;
    arenas = [];
    arena_bytes = 0;
    bins = Array.make bin_count 0;
    stats = Stats.create ();
  }

let round8 n = (n + 7) land lnot 7

let read_header t addr = Mem.read64 t.mem addr
let write_header t addr v = Mem.write64 t.mem addr v

let chunk_size header = header land lnot 7
let chunk_allocated header = header land allocated_bit <> 0

let arena_of t addr =
  List.find_opt (fun a -> addr >= a.base && addr < a.base + a.len) t.arenas

(* --- free-list surgery (all links live in simulated memory) --- *)

let set_next t c v = Mem.write64 t.mem (c + 8) v
let set_prev t c v = Mem.write64 t.mem (c + 16) v
let get_next t c = Mem.read64 t.mem (c + 8)
let get_prev t c = Mem.read64 t.mem (c + 16)

let insert_free t c size =
  write_header t c size;  (* allocated bit clear *)
  let bin = bin_of size in
  let old = t.bins.(bin) in
  set_next t c old;
  set_prev t c 0;
  if old <> 0 then set_prev t old c;
  t.bins.(bin) <- c

(* The classic unsafe unlink: follows whatever the link words contain.  A
   corrupted chunk makes this write through attacker/bug-controlled
   addresses — faithfully reproducing the libc failure mode. *)
let unlink t c bin =
  let next = get_next t c in
  let prev = get_prev t c in
  if next <> 0 then set_prev t next prev;
  if prev <> 0 then set_next t prev next
  else if t.bins.(bin) = c then t.bins.(bin) <- next
  else begin
    (* [c]'s prev link says it is a bin head but the bin disagrees: the
       list is corrupt (double free).  Mimic libc: write anyway. *)
    t.bins.(bin) <- next
  end

(* Split chunk [c] of [size] so that its first [need] bytes are allocated;
   the remainder (if big enough) becomes a free chunk. *)
let split_and_allocate t c size need =
  if size - need >= min_chunk then begin
    insert_free t (c + need) (size - need);
    write_header t c (need lor allocated_bit)
  end
  else write_header t c (size lor allocated_bit)

(* The Windows variant keeps an in-heap "heap header" at the start of
   each arena (counters and flags, like the XP heap), updated on every
   operation — the bookkeeping traffic that makes the XP allocator
   "substantially slower than the Lea allocator" (§7.2.2). *)
let arena_header_size t = match t.variant with Windows -> 64 | Lea -> 0

let bookkeeping t =
  match (t.variant, t.arenas) with
  | Windows, arena :: _ ->
    (* read-modify-write the header fields *)
    for i = 0 to 4 do
      let field = arena.base + (8 * i) in
      Mem.write64 t.mem field (Mem.read64 t.mem field + 1)
    done
  | Windows, [] | Lea, _ -> ()

let new_arena t need =
  let len = max t.arena_size (round8 need + Mem.page_size + arena_header_size t) in
  if t.arena_bytes + len > t.heap_limit then None
  else begin
    let base = Mem.mmap t.mem len in
    let arena = { base; len; top = base + arena_header_size t } in
    t.arenas <- arena :: t.arenas;
    t.arena_bytes <- t.arena_bytes + len;
    Some arena
  end

let carve_from_top t arena need =
  if arena.top + need <= arena.base + arena.len then begin
    let c = arena.top in
    arena.top <- arena.top + need;
    write_header t c (need lor allocated_bit);
    Some (c + header_size)
  end
  else None

let malloc t sz =
  if sz < 0 then Allocator.null
  else begin
    let need = max min_chunk (round8 sz + header_size) in
    (* 1. search the bins, first fit, from the chunk's own bin upward *)
    let rec search_bin bin =
      if bin >= bin_count then None
      else begin
        let rec scan c =
          if c = 0 then None
          else begin
            t.stats.Stats.probes <- t.stats.Stats.probes + 1;
            let size = chunk_size (read_header t c) in
            if size >= need then Some (c, size) else scan (get_next t c)
          end
        in
        match scan t.bins.(bin) with
        | Some (c, size) ->
          unlink t c bin;
          split_and_allocate t c size need;
          Some (c + header_size)
        | None -> search_bin (bin + 1)
      end
    in
    let from_bins = search_bin (bin_of need) in
    let result =
      match from_bins with
      | Some p -> Some p
      | None -> (
        (* 2. carve from the newest arena's wilderness *)
        let carved =
          match t.arenas with
          | arena :: _ -> carve_from_top t arena need
          | [] -> None
        in
        match carved with
        | Some p -> Some p
        | None -> (
          (* 3. map a new arena *)
          match new_arena t need with
          | None -> None
          | Some arena -> carve_from_top t arena need))
    in
    match result with
    | Some p ->
      Stats.on_malloc t.stats ~requested:sz ~reserved:(need - header_size);
      bookkeeping t;
      p
    | None ->
      t.stats.Stats.failed_mallocs <- t.stats.Stats.failed_mallocs + 1;
      Allocator.null
  end

(* Forward coalescing: if the chunk physically after [c] is free, absorb
   it.  Reads the neighbour's header from simulated memory, so a header
   smashed by an overflow sends this walk into the weeds — the authentic
   libc crash mode. *)
let coalesce_forward t arena c size =
  let next = c + size in
  if next + header_size <= arena.top then begin
    let h = read_header t next in
    let nsize = chunk_size h in
    if (not (chunk_allocated h)) && nsize >= min_chunk && next + nsize <= arena.top
    then begin
      unlink t next (bin_of nsize);
      size + nsize
    end
    else size
  end
  else size

let free t ptr =
  if ptr <> 0 then begin
    let c = ptr - header_size in
    let header = read_header t c in
    let size = chunk_size header in
    (* No validation — mirror classic libc.  Whatever the header says is
       believed.  We do bound the size to keep the *simulator* (not the
       simulated program) from allocating absurd amounts: a wildly corrupt
       size still corrupts the bins but cannot take down the harness. *)
    let size = if size < min_chunk || size > t.heap_limit then min_chunk else size in
    let size =
      match arena_of t c with
      | Some arena -> coalesce_forward t arena c size
      | None -> size
    in
    Stats.on_free t.stats ~reserved:(max 0 (size - header_size));
    insert_free t c size;
    bookkeeping t
  end

let find_object t addr =
  match arena_of t addr with
  | None -> None
  | Some arena ->
    (* Walk the arena's chunks from the base; give up if headers are
       insane (corruption) or we pass the wilderness. *)
    let rec walk c steps =
      if steps = 0 || c + header_size > arena.top then None
      else begin
        let h = read_header t c in
        let size = chunk_size h in
        if size < min_chunk || c + size > arena.base + arena.len then None
        else if addr < c + size then
          if addr >= c + header_size then
            Some
              {
                Allocator.base = c + header_size;
                size = size - header_size;
                allocated = chunk_allocated h;
              }
          else None (* points into the header itself *)
        else walk (c + size) (steps - 1)
      end
    in
    walk (arena.base + arena_header_size t) 1_000_000

let owns t addr = Option.is_some (arena_of t addr)

let allocator t =
  {
    Allocator.name =
      (match t.variant with Lea -> "freelist-lea" | Windows -> "freelist-win");
    mem = t.mem;
    malloc = malloc t;
    free = free t;
    find_object = find_object t;
    owns = owns t;
    register_roots = None;
    stats = t.stats;
  }

let chunk_walk t f =
  let arenas = List.sort (fun a b -> compare a.base b.base) t.arenas in
  List.iter
    (fun arena ->
      let rec walk c steps =
        if steps > 0 && c + header_size <= arena.top then begin
          let h = read_header t c in
          let size = chunk_size h in
          if size >= min_chunk && c + size <= arena.base + arena.len then begin
            f ~base:c ~size ~allocated:(chunk_allocated h);
            walk (c + size) (steps - 1)
          end
        end
      in
      walk (arena.base + arena_header_size t) 1_000_000)
    arenas
