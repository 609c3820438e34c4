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
let phys_off seg off =
  if seg.aliased then
    (Array.unsafe_get seg.phys (off lsr page_shift) lsl page_shift)
    lor (off land (page_size - 1))
  else off

module Imap = Map.Make (Int)

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
   describing precisely the pre-op state. *)

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
  mutable segments : segment Imap.t;  (* keyed by base *)
  mutable next_base : int;
  mutable cache : segment option;  (* last segment hit *)
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
}

(* TLB/cache accounting publishes through the metrics registry as
   callback gauges: zero cost on the access hot paths, and the dump
   always reflects the most recently created address space (campaigns
   create one per trial; the CLI creates exactly one). *)
let publish_metrics t =
  let g name f = Dh_obs.Metrics.gauge_fn Dh_obs.Metrics.default ("mem." ^ name) f in
  g "reads" (fun () -> t.reads);
  g "writes" (fun () -> t.writes);
  g "mmaps" (fun () -> t.mmaps);
  g "munmaps" (fun () -> t.munmaps);
  g "tlb_misses" (fun () -> t.tlb_misses);
  g "cache_misses" (fun () -> t.cache_misses);
  g "touched_pages" (fun () -> t.touched_pages);
  g "dirty_pages" (fun () -> t.dirty);
  g "preimaged_pages" (fun () -> t.preimaged);
  g "meshed_pages" (fun () ->
      Imap.fold (fun _ seg acc -> acc + seg.meshes) t.segments 0);
  g "mapped_bytes" (fun () ->
      Imap.fold
        (fun _ seg acc -> acc + seg.len - (seg.meshes * page_size))
        t.segments 0)

let create () =
  let t =
  {
    segments = Imap.empty;
    next_base = 16 * page_size;  (* keep a NULL-guard zone at the bottom *)
    cache = None;
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
  }
  in
  if Dh_obs.Control.enabled () then publish_metrics t;
  t

(* --- the locality model ---

   Charging rule: every access charges exactly the pages and cache lines
   its byte range spans, once each, in address order — independent of
   which code path (bytewise, word, or bulk) performs the access.
   Repeated touches of a resident page/line are free, so a bytewise loop
   and one bulk operation over the same range observe identical miss
   counts. *)

let touch_page t page =
  let slot = page land (tlb_entries - 1) in
  if t.tlb.(slot) <> page then begin
    t.tlb.(slot) <- page;
    t.tlb_misses <- t.tlb_misses + 1
  end

let touch_line t line =
  let slot = line land (cache_lines - 1) in
  if t.dcache.(slot) <> line then begin
    t.dcache.(slot) <- line;
    t.cache_misses <- t.cache_misses + 1
  end

(* Charge the TLB and cache for a one-byte access at [addr]. *)
let charge_byte t addr =
  touch_page t (addr lsr page_shift);
  touch_line t (addr lsr cache_line_shift)

(* Charge every cache line overlapping the inclusive range [first, last]. *)
let charge_lines t ~first ~last =
  for line = first lsr cache_line_shift to last lsr cache_line_shift do
    touch_line t line
  done

let round_pages len = (len + page_size - 1) / page_size * page_size

let mmap t ?(prot = Read_write) len =
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
      prot = Array.make pages prot;
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
  t.segments <- Imap.add base seg t.segments;
  t.mmaps <- t.mmaps + 1;
  (match t.ckpt with Some c -> c.born <- base :: c.born | None -> ());
  base

let find_segment t addr =
  match t.cache with
  | Some seg when addr >= seg.base && addr < seg.base + seg.len -> Some seg
  | Some _ | None -> (
    match Imap.find_last_opt (fun base -> base <= addr) t.segments with
    | Some (_, seg) when addr < seg.base + seg.len ->
      t.cache <- Some seg;
      Some seg
    | Some _ | None -> None)

let segment_of t addr =
  match find_segment t addr with
  | Some seg -> Some (seg.base, seg.len)
  | None -> None

let is_mapped t addr = Option.is_some (find_segment t addr)

let mapped_bytes t =
  (* Meshed pages count once: each alias retires one physical page, so the
     resident-set proxy shrinks even though the virtual extent is fixed. *)
  Imap.fold
    (fun _ seg acc -> acc + seg.len - (seg.meshes * page_size))
    t.segments 0

let meshed_pages t = Imap.fold (fun _ seg acc -> acc + seg.meshes) t.segments 0

(* --- flight-recorder hook ---

   Faults are cold, so this is the one place the simulator talks to the
   observability layer on behalf of the program being simulated: when a
   fault is about to be raised (and telemetry is on), capture the
   faulting address's neighborhood into the flight recorder before the
   exception unwinds and the evidence goes stale. *)

let fault_addr_of = function
  | Fault.Unmapped { addr; _ }
  | Fault.Protection { addr; _ }
  | Fault.Unmap_unmapped { addr }
  | Fault.Protect_unmapped { fault_addr = addr; _ } -> addr

(* Hex dump of the bytes around [center], read straight from the backing
   store: no protection checks, no cost-model charging — the recorder
   must not perturb what it observes. *)
let neighborhood t center =
  match find_segment t center with
  | None ->
    let nearest =
      Imap.fold
        (fun base seg acc ->
          let d = min (abs (center - base)) (abs (center - (base + seg.len))) in
          match acc with Some (best, _) when best <= d -> acc | _ -> Some (d, seg))
        t.segments None
    in
    (match nearest with
    | None -> Printf.sprintf "0x%x is unmapped (no segments mapped)" center
    | Some (_, seg) ->
      Printf.sprintf "0x%x is unmapped; nearest segment [0x%x, 0x%x) (%d bytes)"
        center seg.base (seg.base + seg.len) seg.len)
  | Some seg ->
    let lo = max seg.base (center - 64) in
    let hi = min (seg.base + seg.len) (center + 64) in
    let b = Buffer.create 512 in
    Printf.bprintf b "segment [0x%x, 0x%x); 16 bytes per row, * marks 0x%x\n"
      seg.base (seg.base + seg.len) center;
    let row = ref (lo - (lo mod 16)) in
    while !row < hi do
      Printf.bprintf b "%c 0x%08x " (if center - !row >= 0 && center - !row < 16 then '*' else ' ') !row;
      for i = 0 to 15 do
        let a = !row + i in
        if a < lo || a >= hi then Buffer.add_string b " .."
        else
          Printf.bprintf b " %02x"
            (Char.code (Bytes.get seg.data (phys_off seg (a - seg.base))))
      done;
      Buffer.add_char b '\n';
      row := !row + 16
    done;
    Buffer.contents b

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
        let off = p lsl page_shift in
        let changed = ref 0 in
        for i = 0 to page_size - 1 do
          if Bytes.get img i <> Bytes.get seg.data (off + i) then incr changed
        done;
        Printf.bprintf b "  page 0x%08x: %4d/%d bytes differ from checkpoint\n"
          (seg.base + off) !changed page_size
      end)
    c.pre;
  if c.pre_count > !shown then
    Printf.bprintf b "  ... %d more pre-imaged pages\n" (c.pre_count - !shown);
  Buffer.contents b

let raise_fault t f =
  if Dh_obs.Control.enabled () then begin
    let neighborhood_section =
      {
        Dh_obs.Recorder.title = "fault neighborhood";
        body = neighborhood t (fault_addr_of f);
      }
    in
    let sections =
      match t.ckpt with
      | Some c ->
        [
          neighborhood_section;
          { Dh_obs.Recorder.title = "dirty-page delta"; body = dirty_delta t c };
        ]
      | None -> [ neighborhood_section ]
    in
    Dh_obs.Recorder.trigger ~sections ~reason:(Fault.to_string f) ()
  end;
  Fault.raise_fault f

let munmap t base =
  match Imap.find_opt base t.segments with
  | None -> raise_fault t (Fault.Unmap_unmapped { addr = base })
  | Some seg ->
    t.segments <- Imap.remove base t.segments;
    t.munmaps <- t.munmaps + 1;
    (match t.ckpt with
    | Some c ->
      if List.mem base c.born then
        (* Born and gone entirely inside the window: rewind need not know. *)
        c.born <- List.filter (fun b -> b <> base) c.born
      else c.gone <- seg :: c.gone
    | None -> ());
    (match t.cache with
    | Some c when c.base = seg.base -> t.cache <- None
    | Some _ | None -> ())

let protect t ~addr ~len prot =
  if len <= 0 then invalid_arg "Mem.protect: length must be positive";
  match find_segment t addr with
  | None -> raise_fault t (Fault.Protect_unmapped { addr; len; fault_addr = addr })
  | Some seg ->
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

let prot_allows prot access =
  match (prot, access) with
  | Read_write, _ | Read_only, Fault.Read -> true
  | No_access, _ | Read_only, Fault.Write -> false

(* [page] is a PHYSICAL page index: both the written-page proxy and the
   checkpoint pre-images live at the physical level, so two meshed virtual
   pages cost (and pre-image) their shared backing page exactly once. *)
let mark_touched_phys t seg page =
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
         before the caller mutates it (every write path marks before it
         blits).  Segments born after the checkpoint are discarded whole
         on rewind, so their pages need no copies. *)
      c.pre <- (seg, page, Bytes.sub seg.data (page lsl page_shift) page_size) :: c.pre;
      c.pre_count <- c.pre_count + 1;
      t.preimaged <- t.preimaged + 1
    | Some _ | None -> ()
  end

let mark_touched t seg vpage =
  mark_touched_phys t seg (Array.unsafe_get seg.phys vpage)

(* Per-byte access check.  Returns the segment so callers can then touch
   the backing bytes directly. *)
let check t addr access =
  charge_byte t addr;
  match find_segment t addr with
  | None -> raise_fault t (Fault.Unmapped { addr; access })
  | Some seg ->
    let page = (addr - seg.base) lsr page_shift in
    if not (prot_allows seg.prot.(page) access) then
      raise_fault t (Fault.Protection { addr; access });
    (match access with
    | Fault.Write -> mark_touched t seg page
    | Fault.Read -> ());
    seg

let read8 t addr =
  t.reads <- t.reads + 1;
  let seg = check t addr Fault.Read in
  Char.code (Bytes.get seg.data (phys_off seg (addr - seg.base)))

let write8 t addr v =
  t.writes <- t.writes + 1;
  let seg = check t addr Fault.Write in
  Bytes.set seg.data (phys_off seg (addr - seg.base)) (Char.chr (v land 0xFF))

(* --- bulk validation ---

   Every multi-byte operation validates its whole range before mutating
   anything: segment containment and page protection are checked page run
   by page run, charging the TLB per page and the cache per line actually
   spanned, in address order.  On an illegal byte the fault carries
   exactly that byte's address, its page and line have been charged (as
   the bytewise walk would have), and no data has moved — multi-byte
   operations are atomic with respect to faults. *)

(* A maximal run of the range that is contiguous in one segment's backing
   store.  [seg_off] is the VIRTUAL segment-relative offset; blit sites
   translate through {!run_off}.  In an aliased segment adjacent virtual
   pages may live on non-adjacent physical pages, so runs there never
   cross a page boundary — which makes the one-translation-per-run rule
   sound. *)
type run = { rseg : segment; seg_off : int; buf_off : int; rlen : int }

let run_off r = phys_off r.rseg r.seg_off

let validate t ~addr ~len access =
  let fin = addr + len in
  let rec seg_runs pos acc =
    if pos >= fin then List.rev acc
    else
      match find_segment t pos with
      | None ->
        charge_byte t pos;
        raise_fault t (Fault.Unmapped { addr = pos; access })
      | Some seg ->
        let seg_end = seg.base + seg.len in
        let run_end = min fin seg_end in
        let run_end =
          if seg.aliased then
            min run_end
              (seg.base + ((((pos - seg.base) lsr page_shift) + 1) lsl page_shift))
          else run_end
        in
        let first_page = (pos - seg.base) lsr page_shift in
        let last_page = (run_end - 1 - seg.base) lsr page_shift in
        for p = first_page to last_page do
          let page_base = seg.base + (p lsl page_shift) in
          let page_first = max pos page_base in
          touch_page t (page_first lsr page_shift);
          if not (prot_allows seg.prot.(p) access) then begin
            touch_line t (page_first lsr cache_line_shift);
            raise_fault t (Fault.Protection { addr = page_first; access })
          end;
          let page_last = min (run_end - 1) (page_base + page_size - 1) in
          charge_lines t ~first:page_first ~last:page_last
        done;
        seg_runs run_end
          ({ rseg = seg; seg_off = pos - seg.base; buf_off = pos - addr;
             rlen = run_end - pos }
          :: acc)
  in
  if len = 0 then [] else seg_runs addr []

(* Touched-page bookkeeping runs only after the whole range validated:
   a faulting bulk write leaves no trace, not even in the stats. *)
let mark_runs_touched t runs =
  List.iter
    (fun r ->
      for p = r.seg_off lsr page_shift to (r.seg_off + r.rlen - 1) lsr page_shift do
        mark_touched t r.rseg p
      done)
    runs

(* --- word access ---

   Fast path: the word lies entirely inside one segment (the overwhelming
   majority of accesses).  Validates the one or two pages spanned, charges
   pages and lines exactly as eight bytewise accesses would, then blits
   through the segment's contiguous backing store — a word may cross a
   page boundary inside a segment without falling off the fast path. *)

let word_check t seg addr access =
  let last = addr + word_size - 1 in
  let p0 = (addr - seg.base) lsr page_shift in
  let p1 = (last - seg.base) lsr page_shift in
  touch_page t (addr lsr page_shift);
  touch_line t (addr lsr cache_line_shift);
  if not (prot_allows seg.prot.(p0) access) then
    raise_fault t (Fault.Protection { addr; access });
  if p1 <> p0 then begin
    (* The first byte of the second page is where a bytewise walk would
       fault; charge and check it as such. *)
    let q = seg.base + (p1 lsl page_shift) in
    touch_page t (q lsr page_shift);
    touch_line t (q lsr cache_line_shift);
    if not (prot_allows seg.prot.(p1) access) then
      raise_fault t (Fault.Protection { addr = q; access })
  end
  else if last lsr cache_line_shift <> addr lsr cache_line_shift then
    touch_line t (last lsr cache_line_shift);
  match access with
  | Fault.Write ->
    mark_touched t seg p0;
    if p1 <> p0 then mark_touched t seg p1
  | Fault.Read -> ()

let read64 t addr =
  t.reads <- t.reads + 1;
  match find_segment t addr with
  | Some seg when (not seg.aliased) && addr + word_size <= seg.base + seg.len ->
    word_check t seg addr Fault.Read;
    Int64.to_int (Bytes.get_int64_le seg.data (addr - seg.base))
  | _ ->
    (* Straddles the segment end, starts unmapped, or lies in a meshed
       segment (where a word may span two physical pages): the generic
       validator faults at the exact first offending byte and charges
       identically to the fast path. *)
    let runs = validate t ~addr ~len:word_size Fault.Read in
    let buf = Bytes.create word_size in
    List.iter (fun r -> Bytes.blit r.rseg.data (run_off r) buf r.buf_off r.rlen) runs;
    Int64.to_int (Bytes.get_int64_le buf 0)

let write64 t addr v =
  t.writes <- t.writes + 1;
  match find_segment t addr with
  | Some seg when (not seg.aliased) && addr + word_size <= seg.base + seg.len ->
    word_check t seg addr Fault.Write;
    Bytes.set_int64_le seg.data (addr - seg.base) (Int64.of_int v)
  | _ ->
    (* All eight bytes validate before any mutates: a word straddling into
       an unmapped or protected page never tears. *)
    let runs = validate t ~addr ~len:word_size Fault.Write in
    mark_runs_touched t runs;
    let buf = Bytes.create word_size in
    Bytes.set_int64_le buf 0 (Int64.of_int v);
    List.iter (fun r -> Bytes.blit buf r.buf_off r.rseg.data (run_off r) r.rlen) runs

(* --- bulk access --- *)

let read_bytes t ~addr ~len =
  if len < 0 then invalid_arg "Mem.read_bytes: negative length";
  let runs = validate t ~addr ~len Fault.Read in
  t.reads <- t.reads + len;
  let buf = Bytes.create len in
  List.iter (fun r -> Bytes.blit r.rseg.data (run_off r) buf r.buf_off r.rlen) runs;
  Bytes.unsafe_to_string buf

let write_bytes t ~addr s =
  let len = String.length s in
  let runs = validate t ~addr ~len Fault.Write in
  t.writes <- t.writes + len;
  mark_runs_touched t runs;
  List.iter (fun r -> Bytes.blit_string s r.buf_off r.rseg.data (run_off r) r.rlen) runs

let fill t ~addr ~len c =
  if len < 0 then invalid_arg "Mem.fill: negative length";
  let runs = validate t ~addr ~len Fault.Write in
  t.writes <- t.writes + len;
  mark_runs_touched t runs;
  List.iter (fun r -> Bytes.fill r.rseg.data (run_off r) r.rlen c) runs

let fill_random t ~addr ~len rng =
  if len < 0 then invalid_arg "Mem.fill_random: negative length";
  let runs = validate t ~addr ~len Fault.Write in
  t.writes <- t.writes + len;
  mark_runs_touched t runs;
  (* Same stream consumption as the historical bytewise fill: one u32 per
     four bytes, least-significant byte first — replicas built from equal
     seeds must still produce byte-identical heaps.  A range that is one
     run (the common case: a region or object inside one segment) is
     filled in place. *)
  match runs with
  | [ r ] -> Dh_rng.Mwc.fill_bytes rng r.rseg.data ~off:(run_off r) ~len
  | runs ->
    let buf = Bytes.create len in
    Dh_rng.Mwc.fill_bytes rng buf ~off:0 ~len;
    List.iter (fun r -> Bytes.blit buf r.buf_off r.rseg.data (run_off r) r.rlen) runs

let cstring ?limit t addr =
  let buf = Buffer.create 16 in
  let limit = match limit with Some n -> n | None -> max_int in
  (* Scan page by page inside the containing segment, validating each page
     once and searching the backing bytes directly for the terminator. *)
  let rec scan pos budget =
    if budget <= 0 then Buffer.contents buf
    else
      match find_segment t pos with
      | None ->
        charge_byte t pos;
        raise_fault t (Fault.Unmapped { addr = pos; access = Fault.Read })
      | Some seg ->
        let page = (pos - seg.base) lsr page_shift in
        touch_page t (pos lsr page_shift);
        if not (prot_allows seg.prot.(page) Fault.Read) then begin
          touch_line t (pos lsr cache_line_shift);
          raise_fault t (Fault.Protection { addr = pos; access = Fault.Read })
        end;
        let page_end =
          min (seg.base + ((page + 1) lsl page_shift)) (seg.base + seg.len)
        in
        (* Compare rather than add: [budget] defaults to [max_int], and
           [pos + budget] would overflow. *)
        let stop = if budget < page_end - pos then pos + budget else page_end in
        (* The scan never leaves the current virtual page, so one physical
           translation covers the whole chunk. *)
        let off = phys_off seg (pos - seg.base) in
        let n = stop - pos in
        let nul =
          match Bytes.index_from_opt seg.data off '\000' with
          | Some k when k < off + n -> Some (k - off)
          | Some _ | None -> None
        in
        (match nul with
        | Some k ->
          charge_lines t ~first:pos ~last:(pos + k);
          t.reads <- t.reads + k + 1;
          Buffer.add_subbytes buf seg.data off k;
          Buffer.contents buf
        | None ->
          charge_lines t ~first:pos ~last:(stop - 1);
          t.reads <- t.reads + n;
          Buffer.add_subbytes buf seg.data off n;
          scan stop (budget - n))
  in
  scan addr limit

(* --- page meshing --- *)

let alias t ~src ~dst ~live =
  if src land (page_size - 1) <> 0 || dst land (page_size - 1) <> 0 then
    invalid_arg "Mem.alias: pages must be page-aligned";
  if src = dst then invalid_arg "Mem.alias: src and dst are the same page";
  match find_segment t src with
  | None -> invalid_arg "Mem.alias: src is not mapped"
  | Some seg ->
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
    if live <> [] then mark_touched_phys t seg ps;
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

let backing_page t addr =
  match find_segment t addr with
  | None -> invalid_arg "Mem.backing_page: unmapped address"
  | Some seg ->
    seg.base + (seg.phys.((addr - seg.base) lsr page_shift) lsl page_shift)

(* --- checkpoint / rewind --- *)

let checkpoint t =
  (* Incremental by construction: arming copies nothing.  If a checkpoint
     was already armed its undo log is dropped (the old window commits) —
     only pages dirtied after this call will ever be pre-imaged. *)
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

let checkpointed t = Option.is_some t.ckpt

let discard_checkpoint t =
  t.ckpt <- None;
  t.epoch <- t.epoch + 1;
  t.dirty <- 0

let rewind t =
  match t.ckpt with
  | None -> invalid_arg "Mem.rewind: no checkpoint armed"
  | Some c ->
    (* Segments mapped since the checkpoint vanish wholesale... *)
    let segments_discarded = List.length c.born in
    List.iter (fun base -> t.segments <- Imap.remove base t.segments) c.born;
    (* ...segments unmapped since come back exactly as they were (their
       records were never mutated after the unmap, and any writes before
       it have pre-images below). *)
    let segments_remapped = List.length c.gone in
    List.iter (fun seg -> t.segments <- Imap.add seg.base seg t.segments) c.gone;
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
    t.cache <- None;
    (* The checkpoint stays armed: a second fault in the resumed window
       rewinds to the same state (double-rewind).  Fresh pre-images will
       be re-saved on the next writes — and they equal these, because the
       pages have just been restored. *)
    c.pre <- [];
    c.pre_count <- 0;
    c.born <- [];
    c.gone <- [];
    c.prot_log <- [];
    c.mesh_log <- [];
    t.epoch <- t.epoch + 1;
    t.dirty <- 0;
    { pages_restored; segments_remapped; segments_discarded; protections_restored }

let dirty_pages t = t.dirty
let preimaged_pages t = t.preimaged

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

let pp_stats ppf (s : stats) =
  let accesses = s.reads + s.writes in
  (* Guard the derived hit rates: an empty run has no accesses, and
     0/0 must print as "-" rather than nan. *)
  let hit misses =
    if accesses = 0 then "-"
    else
      Printf.sprintf "%.1f%%"
        (100. *. (1. -. (float_of_int misses /. float_of_int accesses)))
  in
  Format.fprintf ppf
    "reads=%d writes=%d mmaps=%d munmaps=%d dirty=%d tlb-hit=%s cache-hit=%s"
    s.reads s.writes s.mmaps s.munmaps s.dirty_pages (hit s.tlb_misses)
    (hit s.cache_misses)
