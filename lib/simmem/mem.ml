type prot = No_access | Read_only | Read_write

let page_size = 4096
let page_shift = 12
let word_size = 8

type segment = {
  base : int;
  len : int;  (* page-rounded *)
  data : Bytes.t;
  prot : prot array;  (* one entry per VIRTUAL page *)
  phys : int array;
      (* virtual page -> physical page (an index into [data]'s pages).
         Identity until {!alias} meshes two virtual pages onto one
         backing page; [prot] stays virtual (two meshed pages may be
         protected independently) while [touched]/[dirty_epoch] and all
         byte storage are physical. *)
  refcnt : int array;
      (* physical page -> number of virtual pages it backs; 0 = retired
         by a mesh (its bytes are kept so a rewind can resurrect it). *)
  mutable meshes : int;  (* retired physical pages in this segment *)
  mutable aliased : bool;  (* false = [phys] is identity (fast paths) *)
  touched : bool array;  (* PHYSICAL pages written at least once *)
  dirty_epoch : int array;
      (* per PHYSICAL page: the checkpoint epoch in which it was last
         dirtied.  "Dirty now" means [dirty_epoch.(p) = t.epoch]; arming
         or rewinding a checkpoint bumps [t.epoch], so the whole space is
         cleaned in O(1) with no per-page sweep. *)
  born_epoch : int;
      (* epoch at mmap time: a segment with [born_epoch = t.epoch] was
         mapped after the active checkpoint and is discarded wholesale on
         rewind (no pre-images are kept for it). *)
}

(* Translate a segment-relative byte offset through the physical-page
   indirection.  Identity for never-meshed segments, and the [aliased]
   flag keeps that common case to one branch. *)
let[@inline] phys_off seg off =
  if seg.aliased then
    (Array.unsafe_get seg.phys (off lsr page_shift) lsl page_shift)
    lor (off land (page_size - 1))
  else off

(* The page table's entry for a page no segment maps (the NULL guard
   zone, the hole page after each segment, unmapped and never-mapped
   pages): a segment no address lies in, compared by [==]. *)
let no_segment =
  {
    base = -1;
    len = 0;
    data = Bytes.empty;
    prot = [||];
    phys = [||];
    refcnt = [||];
    meshes = 0;
    aliased = false;
    touched = [||];
    dirty_epoch = [||];
    born_epoch = -1;
  }

type stats = {
  reads : int;
  writes : int;
  mmaps : int;
  munmaps : int;
  tlb_misses : int;
  cache_misses : int;
  dirty_pages : int;
}

type rewind_report = {
  pages_restored : int;
  segments_remapped : int;
  segments_discarded : int;
  protections_restored : int;
}

(* A small TLB model: [tlb_entries] pages, direct-mapped.  Feeds the
   benchmark harness's cost model — random object placement (DieHard)
   touches many more pages than a compact allocator, which is exactly
   the overhead the paper attributes DieHard's slowdowns to (§4.5,
   §7.2.1: twolf "is due not to the cost of allocation but to TLB
   misses").  Direct-mapped integer arrays keep the model out of the
   simulator's own hot path: no hashing, no allocation per access. *)
let tlb_entries = 64

(* Data-cache model: [cache_lines] 64-byte lines, direct-mapped.
   Charges cold traversals (GC marking, randomly-placed objects) that a
   purely functional simulator would otherwise treat as free. *)
let cache_lines = 1024
let cache_line_shift = 6

(* --- the checkpoint/rewind layer ---

   Rewind-and-discard recovery (after the ARM Morello line of work):
   [checkpoint] arms an undo log; the write paths then save a 4 KiB
   pre-image of each page the first time it is dirtied in the current
   epoch (copy-on-write — arming itself copies nothing).  [rewind] blits
   the pre-images back, undoes mapping deltas (segments mapped since the
   checkpoint are discarded, segments unmapped since are re-inserted,
   protection changes reverted) and restores [next_base], so a resumed
   execution re-draws the very same addresses a never-faulted run would
   have — O(dirty) recovery instead of O(run) re-execution.

   The exact-fault discipline composes for free: every multi-byte
   operation validates its whole range before mutating anything or
   marking anything dirty, so a fault mid-bulk-op leaves the undo log
   describing precisely the pre-op state.  ({!write_cstring} marks each
   page before its bytes move, so the log stays exact there too.) *)

type ckpt = {
  mutable pre : (segment * int * Bytes.t) list;
      (* (segment, page, pre-image), newest first *)
  mutable pre_count : int;
  mutable born : int list;  (* bases of segments mapped since arming *)
  mutable gone : segment list;  (* segments unmapped since arming *)
  mutable prot_log : (segment * int * prot) list;
      (* protection pre-states, newest first: replaying the whole list in
         order ends on the oldest (arm-time) value for every page *)
  mutable mesh_log : (segment * int * int) list;
      (* (segment, virtual page, previous physical page), newest first:
         meshes performed inside the window, undone on rewind *)
  ck_next_base : int;
}

type t = {
  mutable pages : segment array;
      (* the page table: virtual page -> the segment mapping it, or
         [no_segment].  Covers every page below [next_base] (and maybe
         more), so translating an address is one bounds check and one
         load; one word per page handed out, 1/512 of the bytes mapped. *)
  mutable next_base : int;
  mutable reads : int;
  mutable writes : int;
  mutable mmaps : int;
  mutable munmaps : int;
  mutable touched_pages : int;
  tlb : int array;  (* direct-mapped page tags; -1 = empty *)
  mutable tlb_misses : int;
  dcache : int array;  (* direct-mapped line tags; -1 = empty *)
  mutable cache_misses : int;
  mutable ckpt : ckpt option;  (* the armed checkpoint, if any *)
  mutable epoch : int;
      (* current dirty epoch; bumped by checkpoint/rewind/discard *)
  mutable dirty : int;  (* pages dirtied in the current epoch *)
  mutable preimaged : int;  (* cumulative pages pre-imaged (COW copies) *)
  mutable spare : Bytes.t list;
      (* page buffers of closed windows, reused for new pre-images: a
         window that pre-images n pages draws up to n of them, so the
         list never holds more than the largest window has used *)
  recorder : Dh_obs.Recorder.t;  (* this space's obs state and flight record *)
}

(* The segment mapping [addr], or [no_segment]: a negative address
   shifts to a huge page number and fails the bounds check like one past
   the table's end. *)
let[@inline] segment_at t addr =
  let page = addr lsr page_shift in
  if page < Array.length t.pages then Array.unsafe_get t.pages page else no_segment

(* Point the table's entries for [seg]'s pages at [entry]. *)
let set_pages t seg entry =
  Array.fill t.pages (seg.base lsr page_shift) (seg.len lsr page_shift) entry

(* Fold [f] over the mapped segments in address order, visiting each at
   its first page (cold: accounting and fault reports only). *)
let fold_segments t f acc =
  let rec go page acc =
    if page >= Array.length t.pages then acc
    else
      let seg = Array.unsafe_get t.pages page in
      if seg == no_segment then go (page + 1) acc
      else go (page + (seg.len lsr page_shift)) (f seg acc)
  in
  go 0 acc

let mapped_bytes t =
  (* Meshed pages count once: each alias retires one physical page, so the
     resident-set proxy shrinks even though the virtual extent is fixed. *)
  fold_segments t (fun seg acc -> acc + seg.len - (seg.meshes * page_size)) 0

let meshed_pages t = fold_segments t (fun seg acc -> acc + seg.meshes) 0

let create ?(obs = false) () =
  {
    pages = Array.make 64 no_segment;
    next_base = 16 * page_size;  (* keep a NULL-guard zone at the bottom *)
    reads = 0;
    writes = 0;
    mmaps = 0;
    munmaps = 0;
    touched_pages = 0;
    tlb = Array.make tlb_entries (-1);
    tlb_misses = 0;
    dcache = Array.make cache_lines (-1);
    cache_misses = 0;
    ckpt = None;
    epoch = 0;
    dirty = 0;
    preimaged = 0;
    spare = [];
    recorder = Dh_obs.Recorder.create ~on:obs;
  }

(* --- the locality model ---

   Charging rule: every access charges exactly the pages and cache lines
   its byte range spans, once each, in address order — independent of
   which code path (bytewise, word, or bulk) performs the access.
   Repeated touches of a resident page/line are free, so a bytewise loop
   and one bulk operation over the same range observe identical miss
   counts. *)

let[@inline] touch_page t page =
  let slot = page land (tlb_entries - 1) in
  if t.tlb.(slot) <> page then begin
    t.tlb.(slot) <- page;
    t.tlb_misses <- t.tlb_misses + 1
  end

let[@inline] touch_line t line =
  let slot = line land (cache_lines - 1) in
  if t.dcache.(slot) <> line then begin
    t.dcache.(slot) <- line;
    t.cache_misses <- t.cache_misses + 1
  end

let round_pages len = (len + page_size - 1) / page_size * page_size

let mmap t len =
  if len <= 0 then invalid_arg "Mem.mmap: length must be positive";
  let len = round_pages len in
  let base = t.next_base in
  (* Leave one unmapped hole page after each segment so that runs off the
     end of a mapping fault instead of silently landing in the next one. *)
  t.next_base <- base + len + page_size;
  let pages = len / page_size in
  let seg =
    {
      base;
      len;
      data = Bytes.make len '\000';
      prot = Array.make pages Read_write;
      phys = Array.init pages (fun p -> p);
      refcnt = Array.make pages 1;
      meshes = 0;
      aliased = false;
      touched = Array.make pages false;
      (* -1 never equals a live epoch: fresh pages start clean. *)
      dirty_epoch = Array.make pages (-1);
      born_epoch = t.epoch;
    }
  in
  let need = (base + len) lsr page_shift in
  if need > Array.length t.pages then begin
    let size = ref (Array.length t.pages) in
    while !size < need do
      size := 2 * !size
    done;
    let pages = Array.make !size no_segment in
    Array.blit t.pages 0 pages 0 (Array.length t.pages);
    t.pages <- pages
  end;
  set_pages t seg seg;
  t.mmaps <- t.mmaps + 1;
  (match t.ckpt with Some c -> c.born <- base :: c.born | None -> ());
  base

let segment_of t addr =
  let seg = segment_at t addr in
  if seg == no_segment then None else Some (seg.base, seg.len)

let is_mapped t addr = segment_at t addr != no_segment

(* [f off pos n] for each piece of [addr, addr+len) (inside [seg]) that
   is contiguous in the segment's backing store: [off] is the piece's
   offset there and [pos] its offset in the range.  The whole range is
   one piece unless the segment is meshed, where adjacent virtual pages
   may live on non-adjacent physical pages. *)
let iter_pieces seg ~addr ~len f =
  if not seg.aliased then f (addr - seg.base) 0 len
  else
    let rec go pos =
      if pos < len then begin
        let off = addr - seg.base + pos in
        let n = Int.min (len - pos) (page_size - (off land (page_size - 1))) in
        f (phys_off seg off) pos n;
        go (pos + n)
      end
    in
    go 0

let gather seg ~addr ~len =
  let buf = Bytes.create len in
  iter_pieces seg ~addr ~len (fun off pos n -> Bytes.blit seg.data off buf pos n);
  buf

let scatter seg ~addr buf =
  iter_pieces seg ~addr ~len:(Bytes.length buf) (fun off pos n ->
      Bytes.blit buf pos seg.data off n)

let inspect t ~addr ~len =
  let seg = segment_at t addr in
  if seg != no_segment && len >= 0 && addr + len <= seg.base + seg.len then
    Bytes.unsafe_to_string (gather seg ~addr ~len)
  else invalid_arg "Mem.inspect: range not inside one segment"

(* --- flight-recorder hook ---

   Faults are cold, so this is the one place the simulator talks to the
   observability layer on behalf of the program being simulated: when a
   fault is about to be raised (and telemetry is on), capture the
   faulting address's neighborhood into the flight recorder before the
   exception unwinds and the evidence goes stale.  The capture goes to
   this space's own recorder. *)

let hex_digits = "0123456789abcdef"

(* Hex dump of the bytes around [center], read straight from the backing
   store: no protection checks, no cost-model charging — the recorder
   must not perturb what it observes. *)
let neighborhood t center =
  let seg = segment_at t center in
  if seg == no_segment then
    let nearest =
      fold_segments t
        (fun seg acc ->
          let d = min (abs (center - seg.base)) (abs (center - (seg.base + seg.len))) in
          match acc with Some (best, _) when best <= d -> acc | _ -> Some (d, seg))
        None
    in
    match nearest with
    | None -> Printf.sprintf "0x%x is unmapped (no segments mapped)" center
    | Some (_, seg) ->
      Printf.sprintf "0x%x is unmapped; nearest segment [0x%x, 0x%x) (%d bytes)"
        center seg.base (seg.base + seg.len) seg.len
  else begin
    let lo = max seg.base (center - 64) in
    let hi = min (seg.base + seg.len) (center + 64) in
    let bytes = inspect t ~addr:lo ~len:(hi - lo) in
    let b = Buffer.create 512 in
    Printf.bprintf b "segment [0x%x, 0x%x); 16 bytes per row, * marks 0x%x\n"
      seg.base (seg.base + seg.len) center;
    let row = ref (lo - (lo mod 16)) in
    while !row < hi do
      Printf.bprintf b "%c 0x%08x " (if center - !row >= 0 && center - !row < 16 then '*' else ' ') !row;
      for i = 0 to 15 do
        let a = !row + i in
        if a < lo || a >= hi then Buffer.add_string b " .."
        else begin
          let c = Char.code bytes.[a - lo] in
          Buffer.add_char b ' ';
          Buffer.add_char b hex_digits.[c lsr 4];
          Buffer.add_char b hex_digits.[c land 15]
        end
      done;
      Buffer.add_char b '\n';
      row := !row + 16
    done;
    Buffer.contents b
  end

(* An unchecked 8-byte load: the delta below reads only inside a
   page-sized pre-image and inside the segment's own page. *)
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* The number of non-zero bytes in the 32-bit [x], without a loop:
   adding 0x7f to each byte's low seven bits carries into its top bit
   exactly when those bits are not all zero (never into the next byte),
   or-ing [x] back in sets the top bit of every other non-zero byte,
   and a multiply sums the four top bits into bits 24-31. *)
let[@inline] nonzero_bytes32 x =
  let tops = (((x land 0x7f7f7f7f) + 0x7f7f7f7f) lor x) land 0x80808080 in
  ((tops lsr 7) * 0x01010101) lsr 24 land 0xff

(* How many bytes of page [p] of [seg] differ from its pre-image [img]:
   a word at a time, most of a dirty page usually being unchanged. *)
let page_delta seg p img =
  let off = p lsl page_shift in
  let changed = ref 0 in
  for i = 0 to (page_size / word_size) - 1 do
    let j = i * word_size in
    let x = Int64.logxor (unsafe_get64 img j) (unsafe_get64 seg.data (off + j)) in
    if x <> 0L then
      changed :=
        !changed
        + nonzero_bytes32 (Int64.to_int x land 0xffffffff)
        + nonzero_bytes32 (Int64.to_int (Int64.shift_right_logical x 32))
  done;
  !changed

(* The faulting window's dirty-page delta: which pages the current
   checkpoint window wrote, and how far each has diverged from its
   pre-image — the time-travel view of the crash site. *)
let dirty_delta t c =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "%d pages dirty since last checkpoint (%d pre-imaged, %d in newborn segments)\n"
    t.dirty c.pre_count (t.dirty - c.pre_count);
  let shown = ref 0 in
  List.iter
    (fun (seg, p, img) ->
      if !shown < 32 then begin
        incr shown;
        Printf.bprintf b "  page 0x%08x: %4d/%d bytes differ from checkpoint\n"
          (seg.base + (p lsl page_shift)) (page_delta seg p img) page_size
      end)
    c.pre;
  if c.pre_count > !shown then
    Printf.bprintf b "  ... %d more pre-imaged pages\n" (c.pre_count - !shown);
  Buffer.contents b

let stats t =
  {
    reads = t.reads;
    writes = t.writes;
    mmaps = t.mmaps;
    munmaps = t.munmaps;
    tlb_misses = t.tlb_misses;
    cache_misses = t.cache_misses;
    dirty_pages = t.dirty;
  }

let touched_pages t = t.touched_pages
let preimaged_pages t = t.preimaged
let recorder t = t.recorder

(* This address space's own counters, for its fault's flight record. *)
let counters_body t =
  let s = stats t in
  Printf.sprintf
    "reads=%d writes=%d mmaps=%d munmaps=%d tlb_misses=%d cache_misses=%d \
     dirty_pages=%d touched_pages=%d preimaged_pages=%d\n"
    s.reads s.writes s.mmaps s.munmaps s.tlb_misses s.cache_misses s.dirty_pages
    (touched_pages t) (preimaged_pages t)

let raise_fault t f =
  if Dh_obs.Recorder.on t.recorder then begin
    let neighborhood_section =
      {
        Dh_obs.Recorder.title = "fault neighborhood";
        body = neighborhood t (Fault.addr f);
      }
    in
    let counters_section =
      { Dh_obs.Recorder.title = "mem counters"; body = counters_body t }
    in
    let sections =
      match t.ckpt with
      | Some c ->
        [
          neighborhood_section;
          { Dh_obs.Recorder.title = "dirty-page delta"; body = dirty_delta t c };
          counters_section;
        ]
      | None -> [ neighborhood_section; counters_section ]
    in
    Dh_obs.Recorder.trigger ~sections ~reason:(Fault.to_string f) t.recorder
  end;
  Fault.raise_fault f

let munmap t base =
  let seg = segment_at t base in
  if seg == no_segment || seg.base <> base then
    raise_fault t (Fault.Unmap_unmapped { addr = base });
  set_pages t seg no_segment;
  t.munmaps <- t.munmaps + 1;
  match t.ckpt with
  | Some c ->
    if List.mem base c.born then
      (* Born and gone entirely inside the window: rewind need not know. *)
      c.born <- List.filter (fun b -> b <> base) c.born
    else c.gone <- seg :: c.gone
  | None -> ()

let protect t ~addr ~len prot =
  if len <= 0 then invalid_arg "Mem.protect: length must be positive";
  let seg = segment_at t addr in
  if seg == no_segment then
    raise_fault t (Fault.Protect_unmapped { addr; len; fault_addr = addr })
  else begin
    if addr + len > seg.base + seg.len then
      raise_fault t
        (Fault.Protect_unmapped { addr; len; fault_addr = seg.base + seg.len });
    let first = (addr - seg.base) / page_size in
    let last = (addr + len - 1 - seg.base) / page_size in
    for p = first to last do
      (match t.ckpt with
      | Some c when seg.born_epoch <> t.epoch && seg.prot.(p) <> prot ->
        c.prot_log <- (seg, p, seg.prot.(p)) :: c.prot_log
      | Some _ | None -> ());
      seg.prot.(p) <- prot
    done
  end

let prot_allows prot access =
  match (prot, access) with
  | Read_write, _ | Read_only, Fault.Read -> true
  | No_access, _ | Read_only, Fault.Write -> false

(* --- access validation ---

   One validator serves every load and store: byte, word, bulk and each
   page a C-string scan reads or a C-string store writes.  {!validate}
   finds the range's segment and {!check_page} validates it one page at
   a time in address order, charging the TLB once per page and the cache
   once per line the range spans (so miss counts depend only on the
   address stream, not on the access width), and faulting at the first
   byte of the first page whose protection forbids the access — after
   charging that byte's page and line, exactly as a bytewise walk would
   have.  Nothing is mutated or
   marked written until the whole range has validated, so multi-byte
   operations (all but {!write_cstring}) are atomic with respect to
   faults, and a fault mid-operation leaves the undo log describing
   precisely the pre-op state.

   A valid range never spans two segments: every segment is followed by
   an unmapped hole page ({!mmap}; rewind restores [next_base] and drops
   the segments born after it), so a range that leaves its segment
   faults at the segment's end.

   Validating the one-page case (every byte access, nearly every word)
   is inlined into each access: {!segment_at}'s one table load finds the
   segment, and comparing it with [no_segment] checks that it is mapped,
   so no access allocates. *)

(* Charge an access to the unmapped byte [addr] and raise its fault. *)
let unmapped t addr access =
  touch_page t (addr lsr page_shift);
  touch_line t (addr lsr cache_line_shift);
  raise_fault t (Fault.Unmapped { addr; access })

let rec charge_lines t line last =
  touch_line t line;
  if line < last then charge_lines t (line + 1) last

(* Validate the part of [pos, fin) (inside [seg]) on [pos]'s page and
   return where that part ends: charge the page and the line of [pos],
   check the page's protection, then charge any further lines the part
   crosses. *)
let[@inline] check_page t seg pos fin access =
  touch_page t (pos lsr page_shift);
  touch_line t (pos lsr cache_line_shift);
  if not (prot_allows (Array.unsafe_get seg.prot ((pos - seg.base) lsr page_shift)) access)
  then raise_fault t (Fault.Protection { addr = pos; access });
  let page_end = (pos lor (page_size - 1)) + 1 in
  let stop = if fin < page_end then fin else page_end in
  let line = pos lsr cache_line_shift and last = (stop - 1) lsr cache_line_shift in
  if line < last then charge_lines t (line + 1) last;
  stop

let rec walk t seg pos fin access =
  let stop = check_page t seg pos fin access in
  if stop < fin then walk t seg stop fin access

(* Validate the non-empty range [addr, addr+len) and return its segment. *)
let[@inline] validate t ~addr ~len access =
  let seg = segment_at t addr in
  if seg == no_segment then unmapped t addr access
  else
    let seg_end = seg.base + seg.len in
    let fin = if addr + len <= seg_end then addr + len else seg_end in
    let stop = check_page t seg addr fin access in
    if stop < fin then walk t seg stop fin access;
    if addr + len > seg_end then unmapped t seg_end access;
    seg

(* Mark virtual pages [vpage, last] written, before any byte moves.  The
   written-page proxy and the checkpoint pre-images live at the physical
   level, so two meshed virtual pages cost (and pre-image) their shared
   backing page exactly once. *)
let rec mark_pages t seg vpage last =
  let page = Array.unsafe_get seg.phys vpage in
  if not seg.touched.(page) then begin
    seg.touched.(page) <- true;
    t.touched_pages <- t.touched_pages + 1
  end;
  if seg.dirty_epoch.(page) <> t.epoch then begin
    seg.dirty_epoch.(page) <- t.epoch;
    t.dirty <- t.dirty + 1;
    match t.ckpt with
    | Some c when seg.born_epoch <> t.epoch ->
      (* First write to this page since the checkpoint: save its pre-image
         before the caller mutates it.  Segments born after the checkpoint
         are discarded whole on rewind, so their pages need no copies. *)
      let off = page lsl page_shift in
      let img =
        match t.spare with
        | img :: rest ->
          t.spare <- rest;
          Bytes.blit seg.data off img 0 page_size;
          img
        | [] -> Bytes.sub seg.data off page_size
      in
      c.pre <- (seg, page, img) :: c.pre;
      c.pre_count <- c.pre_count + 1;
      t.preimaged <- t.preimaged + 1
    | Some _ | None -> ()
  end;
  if vpage < last then mark_pages t seg (vpage + 1) last

let[@inline] mark_written t seg ~addr ~len =
  mark_pages t seg ((addr - seg.base) lsr page_shift) ((addr + len - 1 - seg.base) lsr page_shift)

(* --- byte and word access --- *)

let read8 t addr =
  t.reads <- t.reads + 1;
  let seg = validate t ~addr ~len:1 Fault.Read in
  Char.code (Bytes.get seg.data (phys_off seg (addr - seg.base)))

let write8 t addr v =
  t.writes <- t.writes + 1;
  let seg = validate t ~addr ~len:1 Fault.Write in
  mark_written t seg ~addr ~len:1;
  Bytes.set seg.data (phys_off seg (addr - seg.base)) (Char.chr (v land 0xFF))

(* The range [addr, addr+len) is one backing-store piece unless it
   straddles two pages of a meshed segment. *)
let[@inline] one_piece seg addr len =
  (not seg.aliased) || addr land (page_size - 1) <= page_size - len

let read64 t addr =
  t.reads <- t.reads + 1;
  let seg = validate t ~addr ~len:word_size Fault.Read in
  if one_piece seg addr word_size then
    Int64.to_int (Bytes.get_int64_le seg.data (phys_off seg (addr - seg.base)))
  else Int64.to_int (Bytes.get_int64_le (gather seg ~addr ~len:word_size) 0)

let write64 t addr v =
  t.writes <- t.writes + 1;
  let seg = validate t ~addr ~len:word_size Fault.Write in
  mark_written t seg ~addr ~len:word_size;
  if one_piece seg addr word_size then
    Bytes.set_int64_le seg.data (phys_off seg (addr - seg.base)) (Int64.of_int v)
  else begin
    let buf = Bytes.create word_size in
    Bytes.set_int64_le buf 0 (Int64.of_int v);
    scatter seg ~addr buf
  end

(* --- word ranges: [n] words between memory and the first [8n] bytes of
   a caller's buffer, validated once like a bulk access but counted as
   the [n] word accesses they stand for, and only once the range has
   validated --- *)

external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Copy [n] words from [src] at [soff] to [dst] at [doff], bounds already
   checked: a word loop, which beats a [Bytes.blit] C call on the short
   ranges a program touches; long ones go to the blit. *)
let copy_words src soff dst doff n =
  if n <= 8 then
    for w = 0 to n - 1 do
      let i = w * word_size in
      unsafe_set64 dst (doff + i) (unsafe_get64 src (soff + i))
    done
  else Bytes.blit src soff dst doff (n * word_size)

let check_words name buf n =
  if n < 0 || n > Bytes.length buf / word_size then
    invalid_arg (name ^ ": word count outside the buffer")

let write_words t ~addr buf ~n =
  check_words "Mem.write_words" buf n;
  if n > 0 then begin
    let len = n * word_size in
    let seg = validate t ~addr ~len Fault.Write in
    t.writes <- t.writes + n;
    mark_written t seg ~addr ~len;
    if one_piece seg addr len then copy_words buf 0 seg.data (phys_off seg (addr - seg.base)) n
    else iter_pieces seg ~addr ~len (fun off pos k -> Bytes.blit buf pos seg.data off k)
  end

let read_words t ~addr buf ~n =
  check_words "Mem.read_words" buf n;
  if n > 0 then begin
    let len = n * word_size in
    let seg = validate t ~addr ~len Fault.Read in
    t.reads <- t.reads + n;
    if one_piece seg addr len then copy_words seg.data (phys_off seg (addr - seg.base)) buf 0 n
    else iter_pieces seg ~addr ~len (fun off pos k -> Bytes.blit seg.data off buf pos k)
  end

(* --- bulk access: [len] is counted only once the range has validated,
   and an empty range touches nothing --- *)

let read_bytes t ~addr ~len =
  if len < 0 then invalid_arg "Mem.read_bytes: negative length";
  if len = 0 then ""
  else begin
    let seg = validate t ~addr ~len Fault.Read in
    t.reads <- t.reads + len;
    Bytes.unsafe_to_string (gather seg ~addr ~len)
  end

(* Validate a non-empty bulk write, count it and mark its pages written. *)
let bulk_write t ~addr ~len =
  let seg = validate t ~addr ~len Fault.Write in
  t.writes <- t.writes + len;
  mark_written t seg ~addr ~len;
  seg

let write_bytes t ~addr s =
  let len = String.length s in
  if len > 0 then scatter (bulk_write t ~addr ~len) ~addr (Bytes.unsafe_of_string s)

let fill t ~addr ~len c =
  if len < 0 then invalid_arg "Mem.fill: negative length";
  if len > 0 then begin
    let seg = bulk_write t ~addr ~len in
    iter_pieces seg ~addr ~len (fun off _ n -> Bytes.fill seg.data off n c)
  end

let fill_random t ~addr ~len rng =
  if len < 0 then invalid_arg "Mem.fill_random: negative length";
  if len > 0 then begin
    let seg = bulk_write t ~addr ~len in
    (* Same stream consumption as the historical bytewise fill: one u32 per
       four bytes, least-significant byte first — replicas built from equal
       seeds must still produce byte-identical heaps.  An unmeshed segment
       is filled in place. *)
    if not seg.aliased then Dh_rng.Mwc.fill_bytes rng seg.data ~off:(addr - seg.base) ~len
    else begin
      let buf = Bytes.create len in
      Dh_rng.Mwc.fill_bytes rng buf ~off:0 ~len;
      scatter seg ~addr buf
    end
  end

(* Store the page run of [s]'s C string (at [addr], ending before [fin])
   that starts at [pos] in [seg], then the runs after it. *)
let rec store_cstring t s ~addr ~fin seg pos =
  let seg_end = seg.base + seg.len in
  t.writes <- t.writes + 1;
  if pos = seg_end then unmapped t pos Fault.Write;
  let stop = check_page t seg pos (if fin < seg_end then fin else seg_end) Fault.Write in
  t.writes <- t.writes + (stop - pos - 1);
  mark_written t seg ~addr:pos ~len:(stop - pos);
  (* The run never leaves its virtual page, so one translation covers it. *)
  let off = phys_off seg (pos - seg.base) and i = pos - addr in
  Bytes.blit_string s i seg.data off (Int.min (stop - pos) (String.length s - i));
  if stop = fin then Bytes.set seg.data (off + (fin - 1 - pos)) '\000'
  else store_cstring t s ~addr ~fin seg stop

(* The store C's [strcpy] makes: [s], then a NUL, exactly as
   [String.iteri (write8 ...)] followed by [write8 ... 0] would, but one
   page at a time.  Unlike every other multi-byte store it is not atomic:
   each page run is counted, validated, marked written and copied before
   the next is looked at, so a fault leaves the bytes before it written
   and counts the faulting byte, as the bytewise loop does. *)
let write_cstring t ~addr s =
  let seg = segment_at t addr in
  if seg == no_segment then begin
    t.writes <- t.writes + 1;
    unmapped t addr Fault.Write
  end
  else store_cstring t s ~addr ~fin:(addr + String.length s + 1) seg addr

(* --- page meshing --- *)

let alias t ~src ~dst ~live =
  if src land (page_size - 1) <> 0 || dst land (page_size - 1) <> 0 then
    invalid_arg "Mem.alias: pages must be page-aligned";
  if src = dst then invalid_arg "Mem.alias: src and dst are the same page";
  let seg = segment_at t src in
  if seg == no_segment then invalid_arg "Mem.alias: src is not mapped"
  else begin
    if dst < seg.base || dst >= seg.base + seg.len then
      invalid_arg "Mem.alias: src and dst must lie in one segment";
    let sv = (src - seg.base) lsr page_shift in
    let dv = (dst - seg.base) lsr page_shift in
    let ps = seg.phys.(sv) in
    let pd = seg.phys.(dv) in
    if ps = pd then invalid_arg "Mem.alias: pages already share a backing page";
    if seg.refcnt.(pd) <> 1 then
      invalid_arg "Mem.alias: dst's backing page is shared (mesh it as src)";
    if seg.prot.(sv) <> Read_write || seg.prot.(dv) <> Read_write then
      invalid_arg "Mem.alias: both pages must be Read_write";
    List.iter
      (fun (off, len) ->
        if off < 0 || len < 0 || off + len > page_size then
          invalid_arg "Mem.alias: live range outside the page")
      live;
    (* The merge writes into the survivor: pre-image it first so a rewind
       across this mesh restores its exact pre-merge bytes.  The copy is
       allocator-internal compaction, not a program access — no stats or
       TLB/cache charges (the virtual address stream is unchanged). *)
    if live <> [] then mark_written t seg ~addr:src ~len:1;
    (match t.ckpt with
    | Some c when seg.born_epoch <> t.epoch ->
      c.mesh_log <- (seg, dv, pd) :: c.mesh_log
    | Some _ | None -> ());
    List.iter
      (fun (off, len) ->
        Bytes.blit seg.data ((pd lsl page_shift) + off) seg.data
          ((ps lsl page_shift) + off) len)
      live;
    (* Two touched physical pages collapse into one: the retired page's
       count transfers to the survivor (or cancels if both were counted).
       The retired page's bytes are deliberately NOT scrubbed — nothing
       maps to it, and keeping them lets a rewind resurrect the page
       without an extra pre-image. *)
    if seg.touched.(pd) then begin
      seg.touched.(pd) <- false;
      if seg.touched.(ps) then t.touched_pages <- t.touched_pages - 1
      else seg.touched.(ps) <- true
    end;
    seg.phys.(dv) <- ps;
    seg.refcnt.(ps) <- seg.refcnt.(ps) + 1;
    seg.refcnt.(pd) <- 0;
    seg.meshes <- seg.meshes + 1;
    seg.aliased <- true
  end

let backing_page t addr =
  let seg = segment_at t addr in
  if seg == no_segment then invalid_arg "Mem.backing_page: unmapped address"
  else seg.base + (seg.phys.((addr - seg.base) lsr page_shift) lsl page_shift)

(* --- checkpoint / rewind --- *)

(* A window that closes (commits, is discarded, or has been rewound and
   blitted back) no longer needs its pre-images: their buffers go to the
   spare list for the next window's first touches. *)
let recycle t c =
  List.iter (fun (_, _, img) -> t.spare <- img :: t.spare) c.pre;
  c.pre <- [];
  c.pre_count <- 0

let checkpoint t =
  (* Incremental by construction: arming copies nothing.  If a checkpoint
     was already armed its undo log is dropped (the old window commits) —
     only pages dirtied after this call will ever be pre-imaged. *)
  Option.iter (recycle t) t.ckpt;
  t.ckpt <-
    Some
      {
        pre = [];
        pre_count = 0;
        born = [];
        gone = [];
        prot_log = [];
        mesh_log = [];
        ck_next_base = t.next_base;
      };
  t.epoch <- t.epoch + 1;
  t.dirty <- 0

let discard_checkpoint t =
  Option.iter (recycle t) t.ckpt;
  t.ckpt <- None;
  t.epoch <- t.epoch + 1;
  t.dirty <- 0

let rewind t =
  match t.ckpt with
  | None -> invalid_arg "Mem.rewind: no checkpoint armed"
  | Some c ->
    (* Segments mapped since the checkpoint vanish wholesale... *)
    let segments_discarded = List.length c.born in
    List.iter (fun base -> set_pages t (segment_at t base) no_segment) c.born;
    (* ...segments unmapped since come back exactly as they were (their
       records were never mutated after the unmap, and any writes before
       it have pre-images below). *)
    let segments_remapped = List.length c.gone in
    List.iter (fun seg -> set_pages t seg seg) c.gone;
    (* Protection pre-states, newest first: the oldest entry for a page
       lands last, restoring its arm-time protection. *)
    let protections_restored = List.length c.prot_log in
    List.iter (fun (seg, p, prot) -> seg.prot.(p) <- prot) c.prot_log;
    (* Meshes performed inside the window are undone newest-first: each
       virtual page returns to its previous backing page (whose bytes were
       never scrubbed), and the survivor drops a reference.  Pre-images
       are keyed by physical page, so the blits below restore bytes
       correctly whichever mapping a page had when it was dirtied. *)
    List.iter
      (fun (seg, dv, old_phys) ->
        let cur = seg.phys.(dv) in
        seg.refcnt.(cur) <- seg.refcnt.(cur) - 1;
        seg.refcnt.(old_phys) <- seg.refcnt.(old_phys) + 1;
        seg.phys.(dv) <- old_phys;
        seg.meshes <- seg.meshes - 1;
        if seg.meshes = 0 then seg.aliased <- false)
      c.mesh_log;
    List.iter
      (fun (seg, p, img) -> Bytes.blit img 0 seg.data (p lsl page_shift) page_size)
      c.pre;
    let pages_restored = c.pre_count in
    t.next_base <- c.ck_next_base;
    (* The checkpoint stays armed: a second fault in the resumed window
       rewinds to the same state (double-rewind).  Fresh pre-images will
       be re-saved on the next writes — and they equal these, because the
       pages have just been restored. *)
    recycle t c;
    c.born <- [];
    c.gone <- [];
    c.prot_log <- [];
    c.mesh_log <- [];
    t.epoch <- t.epoch + 1;
    t.dirty <- 0;
    { pages_restored; segments_remapped; segments_discarded; protections_restored }

let dirty_pages t = t.dirty
