module Mem = Dh_mem.Mem
module Mwc = Dh_rng.Mwc
module Size_class = Dh_alloc.Size_class
module Bitmap = Dh_alloc.Bitmap
module Stats = Dh_alloc.Stats
module Allocator = Dh_alloc.Allocator

type region = {
  class_ : int;
  capacity : int;  (* slots *)
  shift : int;
      (* log2 of the slot size (8 lsl class_): a slot's index is its
         byte offset lsr shift, with no division *)
  bytes : int;  (* capacity lsl shift: the region's extent *)
  threshold : int;  (* capacity / M *)
  bitmap : Bitmap.t;
  mutable base : int;  (* 0 until lazily mapped *)
  mutable in_use : int;
  (* --- page-meshing state (classes whose size fits in a page) --- *)
  slots_per_page : int;  (* 0 for classes larger than a page *)
  spp_shift : int;
      (* log2 slots_per_page when that is > 0: a slot's page is its
         index lsr spp_shift, its place on the page index land
         (slots_per_page - 1) *)
  page_live : int array;  (* per-page live-slot counts, length = pages *)
  masked : Bitmap.t;
      (* slot is free but its bytes belong to a live object on the buddy
         page sharing the backing page — unusable until un-meshed.  Kept
         apart from [bitmap] so free-validation and fullness semantics
         are untouched. *)
  buddy : int array;  (* page -> page sharing its backing page, or -1 *)
  mutable meshed : int;  (* currently-meshed pairs in this region *)
  sites : site_table;
      (* per-slot allocation-site ids for audit provenance; empty until
         the first audited allocation, so an obs-off heap pays nothing.
         A slot keeps its last site after free — that is the point: a
         dangling access attributes to the site that allocated the
         stale object.  Deliberately not snapshotted: provenance is
         best-effort telemetry, and rewinding it would misattribute the
         replayed window's allocations. *)
}

(* Site ids packed [width] bytes per slot, the narrowest of 1, 2 and 4
   that holds every id stored so far: ids are dense interning indices,
   so a table usually stays at one byte per slot — 8x the bitmap rather
   than the 64x a plain int array costs on every malloc's random-slot
   write. *)
and site_table = { mutable width : int; mutable ids : Bytes.t }

module Imap = Map.Make (Int)

(* --- large objects (> 16 KB): individual mappings with guard pages,
   the one implementation Adaptive shares.  The table is an immutable
   map behind one mutable field, so a snapshot holds it as is. --- *)

type large_object = { payload : int; size : int; map_base : int }
type large = { mutable objects : large_object Imap.t }  (* keyed by payload *)

let large_table () = { objects = Imap.empty }

let large_malloc large mem stats sz =
  let body = (sz + Mem.page_size - 1) / Mem.page_size * Mem.page_size in
  let map_base = Mem.mmap mem (body + (2 * Mem.page_size)) in
  Mem.protect mem ~addr:map_base ~len:Mem.page_size Mem.No_access;
  Mem.protect mem ~addr:(map_base + Mem.page_size + body) ~len:Mem.page_size Mem.No_access;
  let payload = map_base + Mem.page_size in
  large.objects <- Imap.add payload { payload; size = body; map_base } large.objects;
  Stats.on_malloc stats ~requested:sz ~reserved:body;
  payload

(* freeLargeObject: only unmap objects our own table vouches for;
   everything else is ignored (§4.3). *)
let large_free large mem stats addr =
  match Imap.find_opt addr large.objects with
  | Some lo ->
    large.objects <- Imap.remove addr large.objects;
    Mem.munmap mem lo.map_base;
    Stats.on_free stats ~reserved:lo.size;
    true
  | None ->
    stats.Stats.ignored_frees <- stats.Stats.ignored_frees + 1;
    false

let large_find large addr =
  match Imap.find_last_opt (fun payload -> payload <= addr) large.objects with
  | Some (_, lo) when addr < lo.payload + lo.size ->
    Some { Allocator.base = lo.payload; size = lo.size; allocated = true }
  | Some _ | None -> None

(* Large objects feed the audit under a pseudo-class one past the real
   size classes: they have no slots, so no slot-position entropy, but
   their site provenance and alloc/free flow still count. *)
let large_class = Size_class.count

type t = {
  config : Config.t;
  mem : Mem.t;
  rng : Mwc.t;
  mesh_rng : Mwc.t;
      (* The SplitMesher draws from its own deterministic stream: meshing
         must never advance the allocation generator, or mesh-off and
         mesh-on runs would diverge before the first mesh. *)
  regions : region array;
  large : large;
  mutable large_sites : (int * int) Imap.t;
      (* payload -> (mapped size, site id), audit provenance only.
         Entries are kept after free (dangling attribution) and never
         rewound. *)
  stats : Stats.t;
  mutable freed_since_mesh : int;  (* bytes freed since the last pass *)
  mutable meshes : int;  (* cumulative successful meshes *)
  obs : Dh_obs.Recorder.t;  (* [Mem.recorder mem], read on every malloc and free *)
  audit : Dh_obs.Audit.t;
      (* The heap's own audit: a heap records from one domain at a time,
         so each record is plain adds.  Cumulative: never rewound. *)
}

let create ?(config = Config.default) mem =
  let regions =
    Array.init Size_class.count (fun class_ ->
        let capacity = Config.objects_in_region config ~class_ in
        let size = Size_class.size class_ in
        let shift = class_ + 3 in
        let slots_per_page = if size <= Mem.page_size then Mem.page_size / size else 0 in
        let pages = if slots_per_page = 0 then 0 else capacity / slots_per_page in
        {
          class_;
          capacity;
          shift;
          bytes = capacity lsl shift;
          threshold = Config.threshold config ~class_;
          bitmap = Bitmap.create capacity;
          base = 0;
          in_use = 0;
          slots_per_page;
          spp_shift = (if slots_per_page = 0 then 0 else Mem.page_shift - shift);
          page_live = Array.make pages 0;
          masked = Bitmap.create capacity;
          buddy = Array.make pages (-1);
          meshed = 0;
          sites = { width = 1; ids = Bytes.empty };
        })
  in
  {
    config;
    mem;
    rng = Mwc.create ~seed:config.Config.seed;
    (* Any fixed perturbation decorrelates the two streams while staying
       a pure function of the configured seed (determinism). *)
    mesh_rng = Mwc.create ~seed:(config.Config.seed lxor 0x4d455348);
    regions;
    large = large_table ();
    large_sites = Imap.empty;
    stats = Stats.create ();
    freed_since_mesh = 0;
    meshes = 0;
    obs = Mem.recorder mem;
    audit = Dh_obs.Audit.create (Mem.recorder mem);
  }

let site_get tbl i =
  match tbl.width with
  | 1 -> Bytes.get_uint8 tbl.ids i
  | 2 -> Bytes.get_uint16_le tbl.ids (2 * i)
  | _ -> Int32.to_int (Bytes.get_int32_le tbl.ids (4 * i))

let site_put tbl i site =
  match tbl.width with
  | 1 -> Bytes.set_uint8 tbl.ids i site
  | 2 -> Bytes.set_uint16_le tbl.ids (2 * i) site
  | _ -> Bytes.set_int32_le tbl.ids (4 * i) (Int32.of_int site)

(* Record [site] for slot [i] of a [capacity]-slot region, creating the
   table on first use and widening it (once per width step, copying
   every slot) when an id outgrows the current width. *)
let site_set tbl ~capacity i site =
  if Bytes.length tbl.ids = 0 then tbl.ids <- Bytes.make capacity '\000';
  if tbl.width < 4 && site lsr (8 * tbl.width) <> 0 then begin
    let width = if site lsr 16 = 0 then 2 else 4 in
    let old = { width = tbl.width; ids = tbl.ids } in
    tbl.width <- width;
    tbl.ids <- Bytes.create (width * capacity);
    for j = 0 to capacity - 1 do
      site_put tbl j (site_get old j)
    done
  end;
  site_put tbl i site

(* Hot-path trace instants are sampled 1-in-64 (per heap, off the heap's
   own malloc/free counters, so sampling is deterministic and the first
   event of a run is always traced).  Counters stay exact — sampling only
   thins the per-event span stream, which exists to show shape, not
   totals. *)
let trace_sample = 64  (* a power of two: the sample test is a mask *)

let config t = t.config
let mem t = t.mem
let stats t = t.stats
let rng t = t.rng

(* --- snapshot / restore ---

   The checkpoint layer in {!Dh_mem.Mem} rewinds the simulated address
   space, but DieHard's metadata (bitmaps, the rng, the large-object
   table, counters) deliberately lives *outside* it — the paper's
   metadata segregation.  Rewind-and-discard recovery therefore snapshots
   the metadata here and restores it in lockstep with [Mem.rewind], or
   the bitmaps would claim objects whose bytes were just rolled back.

   Everything is restored in place: the allocator record handed out by
   {!allocator} and the interpreter both alias
   [t.stats] / [t.rng] / the per-region bitmaps, and must observe the
   restored state through those aliases. *)

type region_snapshot = {
  rs_bitmap : Bitmap.t;
  rs_base : int;
  rs_in_use : int;
  rs_masked : Bitmap.t;
  rs_page_live : int array;
  rs_buddy : int array;
  rs_meshed : int;
}

type snapshot = {
  snap_regions : region_snapshot array;
  snap_large : large_object Imap.t;  (* immutable map of immutable records *)
  snap_rng : Mwc.t;
  snap_mesh_rng : Mwc.t;
  snap_stats : Stats.t;
  snap_freed_since_mesh : int;
  snap_meshes : int;
}

let snapshot t =
  {
    snap_regions =
      Array.map
        (fun region ->
          {
            rs_bitmap = Bitmap.copy region.bitmap;
            rs_base = region.base;
            rs_in_use = region.in_use;
            rs_masked = Bitmap.copy region.masked;
            rs_page_live = Array.copy region.page_live;
            rs_buddy = Array.copy region.buddy;
            rs_meshed = region.meshed;
          })
        t.regions;
    snap_large = t.large.objects;
    snap_rng = Mwc.copy t.rng;
    snap_mesh_rng = Mwc.copy t.mesh_rng;
    snap_stats = Stats.copy t.stats;
    snap_freed_since_mesh = t.freed_since_mesh;
    snap_meshes = t.meshes;
  }

let restore t snap =
  (* The mesh state (masked bits, buddy table) restores in lockstep with
     [Mem.rewind], which undoes the corresponding physical remaps. *)
  Array.iteri
    (fun i rs ->
      let region = t.regions.(i) in
      Bitmap.assign region.bitmap ~from:rs.rs_bitmap;
      region.base <- rs.rs_base;
      region.in_use <- rs.rs_in_use;
      Bitmap.assign region.masked ~from:rs.rs_masked;
      Array.blit rs.rs_page_live 0 region.page_live 0 (Array.length rs.rs_page_live);
      Array.blit rs.rs_buddy 0 region.buddy 0 (Array.length rs.rs_buddy);
      region.meshed <- rs.rs_meshed)
    snap.snap_regions;
  t.large.objects <- snap.snap_large;
  Mwc.assign t.rng ~from:snap.snap_rng;
  Mwc.assign t.mesh_rng ~from:snap.snap_mesh_rng;
  Stats.assign t.stats ~from:snap.snap_stats;
  t.freed_since_mesh <- snap.snap_freed_since_mesh;
  t.meshes <- snap.snap_meshes

let reseed t ~seed = Mwc.reseed t.rng ~seed

(* Lazily map a region; in replicated mode, fill it with random values
   (the DieHardInitHeap random fill of Figure 2, done per region because
   regions are mapped on demand). *)
let ensure_mapped t region =
  if region.base = 0 then
    Dh_obs.Recorder.span t.obs ~arg:(string_of_int region.class_) "heap.map_region" (fun () ->
        let len = region.capacity * Size_class.size region.class_ in
        region.base <- Mem.mmap t.mem len;
        if t.config.Config.replicated then
          Mem.fill_random t.mem ~addr:region.base ~len t.rng)

(* The shared guarded mapping, plus the fixed heap's replicated fill and
   audit records. *)
let malloc_large t sz =
  let payload = large_malloc t.large t.mem t.stats sz in
  let size = (Imap.find payload t.large.objects).size in
  if t.config.Config.replicated then Mem.fill_random t.mem ~addr:payload ~len:size t.rng;
  if Dh_obs.Recorder.on t.obs then begin
    let site = Dh_obs.Audit.record_alloc t.audit ~class_:large_class ~index:(-1) ~capacity:0 in
    t.large_sites <- Imap.add payload (size, site) t.large_sites;
    Dh_obs.Recorder.instant t.obs ~arg:(string_of_int sz) "heap.malloc.large"
  end;
  Some payload

let free_large t addr =
  if large_free t.large t.mem t.stats addr && Dh_obs.Recorder.on t.obs then begin
    let site =
      match Imap.find_opt addr t.large_sites with
      | Some (_, site) -> site
      | None -> Dh_obs.Audit.unknown
    in
    Dh_obs.Audit.record_free t.audit ~class_:large_class ~site
  end

(* --- page meshing (MESH, Powers et al.): compacting the randomized
   heap without moving objects ---

   Random placement is what spreads the live set across nearly every
   page (the paper's §4.5 space cost); meshing recovers the pages.  Two
   pages of one size-class region whose slot occupancies are disjoint
   can share a single backing page: [Mem.alias] merges the emptier
   page's live bytes into the fuller one's backing page and remaps it —
   no pointer changes, no object moves.  Each page's free slots that
   overlap its buddy's live slots become *masked*: still free in the
   region bitmap (so free-validation and the 1/M threshold are
   untouched) but skipped by the probe loop, because their bytes belong
   to the buddy's objects.

   Candidate search is MESH's SplitMesher: shuffle the (at most
   half-full, un-meshed) pages of a region with a dedicated rng, split
   into two halves, and probe each left page against a bounded window of
   right pages for bitmap disjointness (O(words) per test via
   [Bitmap.window_disjoint]).  Placements never stop being
   uniform-random — a masked slot is rejected exactly like an occupied
   one — so Theorem 1's guarantees survive; only the probe's acceptance
   set shrinks, and never below [1 - 2/M] of the region. *)

let mesh_probes = 16

(* Coalesced [(byte_offset, len)] ranges of a page's live slots — the
   bytes [Mem.alias] must carry over from the retired backing page. *)
let live_ranges region page =
  let spp = region.slots_per_page in
  let size = Size_class.size region.class_ in
  let ranges = ref [] in
  let run_start = ref (-1) in
  let run_len = ref 0 in
  Bitmap.window_iter_set region.bitmap ~off:(page * spp) ~len:spp (fun s ->
      if !run_start >= 0 && s = !run_start + !run_len then incr run_len
      else begin
        if !run_start >= 0 then
          ranges := (!run_start * size, !run_len * size) :: !ranges;
        run_start := s;
        run_len := 1
      end);
  if !run_start >= 0 then ranges := (!run_start * size, !run_len * size) :: !ranges;
  List.rev !ranges

let mesh_pair t region a b =
  let spp = region.slots_per_page in
  (* The fuller page survives (fewer bytes to merge); ties break low so
     the choice is deterministic. *)
  let src, dst =
    if region.page_live.(a) > region.page_live.(b) then (a, b)
    else if region.page_live.(b) > region.page_live.(a) then (b, a)
    else (min a b, max a b)
  in
  Mem.alias t.mem
    ~src:(region.base + (src * Mem.page_size))
    ~dst:(region.base + (dst * Mem.page_size))
    ~live:(live_ranges region dst);
  (* Each page's live slots mask the mirror slots on its buddy: those
     free slots now address the other page's object bytes. *)
  Bitmap.window_iter_set region.bitmap ~off:(src * spp) ~len:spp (fun s ->
      Bitmap.set region.masked ((dst * spp) + s));
  Bitmap.window_iter_set region.bitmap ~off:(dst * spp) ~len:spp (fun s ->
      Bitmap.set region.masked ((src * spp) + s));
  region.buddy.(a) <- b;
  region.buddy.(b) <- a;
  region.meshed <- region.meshed + 1;
  t.meshes <- t.meshes + 1

(* Keep at least 1/8 of a region's slots free-and-unmasked: meshing
   trades probe headroom for pages, and this bound keeps the expected
   probe count finite whatever M is. *)
let mesh_headroom_ok region =
  region.in_use + Bitmap.cardinal region.masked
  <= region.capacity - (region.capacity / 8)

let mesh_region t region =
  if region.base = 0 || region.slots_per_page = 0 || not (mesh_headroom_ok region)
  then 0
  else begin
    let spp = region.slots_per_page in
    let pages = region.capacity / spp in
    let candidates = ref [] in
    let n = ref 0 in
    for p = pages - 1 downto 0 do
      if region.buddy.(p) < 0 && region.page_live.(p) * 2 <= spp then begin
        candidates := p :: !candidates;
        incr n
      end
    done;
    let n = !n in
    if n < 2 then 0
    else begin
      let cand = Array.of_list !candidates in
      (* Fisher-Yates off the dedicated mesh rng. *)
      for i = n - 1 downto 1 do
        let j = Mwc.below t.mesh_rng (i + 1) in
        let tmp = cand.(i) in
        cand.(i) <- cand.(j);
        cand.(j) <- tmp
      done;
      let half = n / 2 in
      let right = n - half in
      let used = Array.make right false in
      let meshed = ref 0 in
      for i = 0 to half - 1 do
        if mesh_headroom_ok region then begin
          let l = cand.(i) in
          let limit = min mesh_probes right in
          let rec probe k =
            if k < limit then begin
              let j = (i + k) mod right in
              let r = cand.(half + j) in
              if
                (not used.(j))
                && Bitmap.window_disjoint region.bitmap ~a:(l * spp) ~b:(r * spp)
                     ~len:spp
              then begin
                used.(j) <- true;
                mesh_pair t region l r;
                incr meshed
              end
              else probe (k + 1)
            end
          in
          probe 0
        end
      done;
      !meshed
    end
  end

let mesh t =
  Dh_obs.Recorder.span t.obs "heap.mesh" (fun () ->
      let meshed = Array.fold_left (fun acc r -> acc + mesh_region t r) 0 t.regions in
      if meshed > 0 && Dh_obs.Recorder.on t.obs then
        Dh_obs.Recorder.instant t.obs ~arg:(string_of_int meshed) "heap.meshed";
      meshed)

let meshes t = t.meshes
let audit t = t.audit

(* --- small objects: randomized bitmap allocation (Figure 2) --- *)

(* Telemetry for the small-object path, one audit record per malloc:
   slot position (randomness entropy), size-class flow, and the ambient
   allocation site (which the workload bracketed with
   {!Dh_obs.Audit.with_site}; the record reads it and returns it) —
   plus a sampled "heap.malloc" instant.  Probe counts and
   requested bytes are [Stats]' to keep (§4.2's expected-probes
   analysis reads "heap.probes" over "heap.mallocs"). *)
let observe_malloc t ~bytes ~region ~index =
  if Dh_obs.Recorder.on t.obs then begin
    let site =
      Dh_obs.Audit.record_alloc t.audit ~class_:region.class_ ~index ~capacity:region.capacity
    in
    site_set region.sites ~capacity:region.capacity index site;
    if (t.stats.Stats.mallocs - 1) land (trace_sample - 1) = 0 then
      Dh_obs.Recorder.instant t.obs ~arg:(string_of_int bytes) "heap.malloc"
  end

(* Probe for a free slot, like probing into a hash table, adding each
   draw to [Stats.probes].  Because the region is at most 1/M full, the
   expected number of probes is 1/(1 - 1/M).  Masked slots (their bytes
   belong to a meshed buddy page's live objects) are rejected exactly
   like occupied ones; the [meshed > 0] guard keeps an unmeshed heap's
   rng stream — and so its entire behavior — byte-identical to a meshless
   build.  Top-level, so a probe allocates no closure. *)
let rec probe_slot t region =
  t.stats.Stats.probes <- t.stats.Stats.probes + 1;
  let index = Mwc.below t.rng region.capacity in
  if
    Bitmap.get region.bitmap index
    || (region.meshed > 0 && Bitmap.get region.masked index)
  then probe_slot t region
  else index

let malloc_small t sz class_ =
  let region = t.regions.(class_) in
  if
    region.in_use >= region.threshold
    || (region.meshed > 0
       && region.in_use + Bitmap.cardinal region.masked >= region.capacity)
  then begin
    (* At threshold: this size class offers no more memory (§4.2).  A
       meshed region can also exhaust its probeable slots outright —
       masked slots hold buddy-page bytes — though the headroom bound in
       the mesher keeps this to pathological sequences. *)
    t.stats.Stats.failed_mallocs <- t.stats.Stats.failed_mallocs + 1;
    if Dh_obs.Recorder.on t.obs then begin
      Dh_obs.Audit.record_failed t.audit ~class_;
      Dh_obs.Recorder.instant t.obs ~arg:(string_of_int class_) "heap.exhausted"
    end;
    None
  end
  else begin
    ensure_mapped t region;
    let size = Size_class.size class_ in
    let index = probe_slot t region in
    Bitmap.set region.bitmap index;
    region.in_use <- region.in_use + 1;
    if region.slots_per_page > 0 then begin
      let page = index lsr region.spp_shift in
      region.page_live.(page) <- region.page_live.(page) + 1;
      if region.meshed > 0 then begin
        let q = region.buddy.(page) in
        if q >= 0 then
          (* The new object's bytes live on the shared backing page: its
             mirror slot on the buddy page must stop being handed out. *)
          Bitmap.set region.masked
            ((q lsl region.spp_shift) lor (index land (region.slots_per_page - 1)))
      end
    end;
    let addr = region.base + (index * size) in
    if t.config.Config.replicated then Mem.fill_random t.mem ~addr ~len:size t.rng;
    Stats.on_malloc t.stats ~requested:sz ~reserved:size;
    observe_malloc t ~bytes:sz ~region ~index;
    Some addr
  end

let malloc t sz =
  if sz <= 0 then None
  else if sz <= Size_class.max_size then malloc_small t sz (Size_class.of_size_exn sz)
  else malloc_large t sz

(* Hot path: every free/find_object lands here.  The index of the region
   whose slots cover [addr], or -1: an early-exit scan over the twelve
   regions that allocates nothing. *)
let rec region_from regions addr i =
  if i >= Array.length regions then -1
  else
    let region = Array.unsafe_get regions i in
    if
      region.base <> 0 && addr >= region.base
      && addr - region.base < region.bytes
    then i
    else region_from regions addr (i + 1)

let region_index t addr = region_from t.regions addr 0

let free t addr =
  if addr = Allocator.null then ()
  else
    let i = region_index t addr in
    if i < 0 then free_large t addr
    else begin
      let region = t.regions.(i) in
      let size = Size_class.size region.class_ in
      let offset = addr - region.base in
      (* Free only if the offset is slot-aligned and the slot is currently
         allocated; otherwise ignore (prevents invalid and double frees,
         §4.3). *)
      if Size_class.is_aligned ~offset ~class_:region.class_ then begin
        let index = offset lsr region.shift in
        if Bitmap.get region.bitmap index then begin
          Bitmap.clear region.bitmap index;
          region.in_use <- region.in_use - 1;
          if region.slots_per_page > 0 then begin
            let page = index lsr region.spp_shift in
            region.page_live.(page) <- region.page_live.(page) - 1;
            if region.meshed > 0 then begin
              let q = region.buddy.(page) in
              if q >= 0 then
                Bitmap.clear region.masked
                  ((q lsl region.spp_shift) lor (index land (region.slots_per_page - 1)))
            end
          end;
          Stats.on_free t.stats ~reserved:size;
          if Dh_obs.Recorder.on t.obs then begin
            let site =
              if Bytes.length region.sites.ids > 0 then site_get region.sites index
              else Dh_obs.Audit.unknown
            in
            Dh_obs.Audit.record_free t.audit ~class_:region.class_ ~site;
            if (t.stats.Stats.frees - 1) land (trace_sample - 1) = 0 then
              Dh_obs.Recorder.instant t.obs ~arg:(string_of_int size) "heap.free"
          end;
          if t.config.Config.mesh then begin
            t.freed_since_mesh <- t.freed_since_mesh + size;
            if t.freed_since_mesh >= t.config.Config.mesh_threshold then begin
              t.freed_since_mesh <- 0;
              ignore (mesh t)
            end
          end
        end
        else t.stats.Stats.ignored_frees <- t.stats.Stats.ignored_frees + 1
      end
      else t.stats.Stats.ignored_frees <- t.stats.Stats.ignored_frees + 1
    end

(* Audit provenance: the site that allocated the object whose slot or
   mapping covers [addr] — live or freed (a freed slot keeps its last
   site, and a freed large object its entry, so dangling accesses still
   attribute).  [None] when provenance was never recorded (obs off, or
   the bytes never allocated). *)
let site_of_addr t addr =
  let i = region_index t addr in
  if i >= 0 then begin
    let region = t.regions.(i) in
    if Bytes.length region.sites.ids = 0 then None
    else Some (site_get region.sites ((addr - region.base) lsr region.shift))
  end
  else
    match Imap.find_last_opt (fun payload -> payload <= addr) t.large_sites with
    | Some (payload, (size, site)) when addr < payload + size -> Some site
    | Some _ | None -> None

(* A memory fault's address, blamed: on the hole page [Mem.mmap] leaves
   after a size-class region, the fault is a write or read that ran off
   the region's end, and it goes to the nearest allocated slot below.
   That slot is the overrunning object or one it overwrote on its way,
   so the site is exact only when every live slot it crossed has the
   same site (as when one site fills the class); nothing when no slot
   is allocated.  Elsewhere, the object whose slot or mapping covers
   [addr], or [unknown]. *)
let fault_site t addr =
  let past region =
    let stop =
      region.base + ((region.bytes + Mem.page_size - 1) land lnot (Mem.page_size - 1))
    in
    region.base <> 0 && addr >= stop && addr < stop + Mem.page_size
  in
  match Array.find_opt past t.regions with
  | Some region ->
    let rec below i =
      if i < 0 then None
      else if Bitmap.get region.bitmap i then
        if Bytes.length region.sites.ids = 0 then None else Some (site_get region.sites i)
      else below (i - 1)
    in
    below (region.capacity - 1)
  | None -> Some (Option.value (site_of_addr t addr) ~default:Dh_obs.Audit.unknown)

let find_object t addr =
  let i = region_index t addr in
  if i < 0 then large_find t.large addr
  else
    let region = t.regions.(i) in
    let size = Size_class.size region.class_ in
    let index = (addr - region.base) lsr region.shift in
    Some
      {
        Allocator.base = region.base + (index * size);
        size;
        allocated = Bitmap.get region.bitmap index;
      }

let owns t addr = region_index t addr >= 0 || Option.is_some (large_find t.large addr)

(* --- invariants ---

   The properties every theorem of §6 leans on, checked from the heap's
   own metadata.  A test harness calls this after every operation; the
   allocation paths never do. *)

let invariants t =
  let fail fmt = Printf.ksprintf (fun msg -> failwith ("Heap.invariants: " ^ msg)) fmt in
  Array.iter
    (fun region ->
      let class_ = region.class_ in
      if region.in_use > region.threshold then
        fail "class %d holds %d live objects, over its threshold %d" class_ region.in_use
          region.threshold;
      (* An unmapped region holds nothing; its bitmap is never written. *)
      if region.base = 0 && (region.in_use <> 0 || Bitmap.cardinal region.bitmap <> 0) then
        fail "class %d is unmapped but counts live objects" class_;
      let popcount = ref 0 in
      if region.base <> 0 then
        Bitmap.iter_set region.bitmap (fun slot ->
            incr popcount;
            let addr = region.base + (slot * Size_class.size class_) in
            if
              region_index t addr <> class_
              || not (Size_class.is_aligned ~offset:(addr - region.base) ~class_)
            then fail "class %d: live slot %d (0x%x) is not a slot address" class_ slot addr);
      if !popcount <> region.in_use then
        fail "class %d: %d bitmap bits set for %d live objects" class_ !popcount region.in_use;
      let spp = region.slots_per_page in
      if region.meshed > 0 then
        Array.iteri
          (fun p q ->
            if
              q >= 0
              && (region.buddy.(q) <> p
                 || not (Bitmap.window_disjoint region.bitmap ~a:(p * spp) ~b:(q * spp) ~len:spp))
            then fail "class %d: meshed pages %d and %d share live slots" class_ p q)
          region.buddy)
    t.regions;
  Imap.iter
    (fun payload lo ->
      if payload land (Mem.page_size - 1) <> 0 || payload <> lo.map_base + Mem.page_size then
        fail "large object 0x%x is not page-aligned behind its guard page" payload)
    t.large.objects

let allocator t =
  {
    Allocator.name = "diehard";
    mem = t.mem;
    malloc = malloc t;
    free = free t;
    find_object = find_object t;
    owns = owns t;
    register_roots = None;
    stats = t.stats;
  }

let region_base t ~class_ =
  let region = t.regions.(class_) in
  if region.base = 0 then None else Some region.base

let region_capacity t ~class_ = t.regions.(class_).capacity
let region_in_use t ~class_ = t.regions.(class_).in_use

let region_fullness t ~class_ =
  let region = t.regions.(class_) in
  float_of_int region.in_use /. float_of_int region.capacity

let pp_layout ppf t =
  let width = 64 in
  let glyphs = [| '.'; ':'; '-'; '='; '+'; '*'; '%'; '#' |] in
  Array.iter
    (fun region ->
      if region.base <> 0 then begin
        let buckets = Array.make width 0 in
        let per_bucket = max 1 (region.capacity / width) in
        Bitmap.iter_set region.bitmap (fun slot ->
            let b = min (width - 1) (slot / per_bucket) in
            buckets.(b) <- buckets.(b) + 1);
        let line =
          String.init width (fun b ->
              let density = float_of_int buckets.(b) /. float_of_int per_bucket in
              let level =
                if buckets.(b) = 0 then 0
                else
                  (* any occupancy shows: never round a live bucket to '.' *)
                  max 1
                    (min (Array.length glyphs - 1)
                       (int_of_float
                          (density *. float_of_int (Array.length glyphs - 1) +. 0.5)))
              in
              glyphs.(level))
        in
        Format.fprintf ppf "class %2d (%5dB) |%s| %d/%d@." region.class_
          (Size_class.size region.class_)
          line region.in_use region.capacity
      end)
    t.regions;
  if not (Imap.is_empty t.large.objects) then begin
    Format.fprintf ppf "large objects:@.";
    Imap.iter
      (fun _ lo -> Format.fprintf ppf "  0x%x: %d bytes (guarded)@." lo.payload lo.size)
      t.large.objects
  end
