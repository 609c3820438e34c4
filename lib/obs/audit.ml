let max_classes = 16
let slot_buckets = 64

(* --- allocation sites --- *)

let unknown = 0
let sites_lock = Mutex.create ()
let site_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let site_names = ref (Array.make 8 "?")
let n_sites = ref 0

let intern_unlocked name =
  match Hashtbl.find_opt site_ids name with
  | Some id -> id
  | None ->
    let id = !n_sites in
    if id >= Array.length !site_names then begin
      let grown = Array.make (2 * Array.length !site_names) "?" in
      Array.blit !site_names 0 grown 0 id;
      site_names := grown
    end;
    !site_names.(id) <- name;
    n_sites := id + 1;
    Hashtbl.add site_ids name id;
    id

let () = ignore (intern_unlocked "unknown")

let site name = Mutex.protect sites_lock (fun () -> intern_unlocked name)

let site_name id =
  Mutex.protect sites_lock (fun () ->
      if id >= 0 && id < !n_sites then !site_names.(id) else "?")

let site_count () = Mutex.protect sites_lock (fun () -> !n_sites)

(* --- per-domain buffered cells ---

   One process-wide {!Cell} set: each recording domain owns a private
   cell, written with plain in-place adds and merged only on read.  Site
   counters grow on demand — site ids are dense, so flat arrays indexed
   by id stay small. *)

type cell = {
  mutable site : int;
      (* The ambient site: wrappers between the workload and the heap
         forward bare [int -> int option] closures, so the site travels
         out of band, in the cell the heap's record fetches anyway. *)
  allocs : int array;  (* per class *)
  frees : int array;
  failed : int array;
  slot_hist : int array;  (* max_classes * slot_buckets, row-major *)
  mutable by_site_allocs : int array;  (* per site id, grown on demand *)
  mutable by_site_frees : int array;
  capacity_seen : int array;  (* per class: the last region capacity recorded *)
  capacity_log2 : int array;  (* its log2, or -1 when not a power of two *)
}

let fresh_cell () =
  {
    site = unknown;
    allocs = Array.make max_classes 0;
    frees = Array.make max_classes 0;
    failed = Array.make max_classes 0;
    slot_hist = Array.make (max_classes * slot_buckets) 0;
    by_site_allocs = Array.make 8 0;
    by_site_frees = Array.make 8 0;
    capacity_seen = Array.make max_classes 0;
    capacity_log2 = Array.make max_classes (-1);
  }

(* Cells are never unregistered; [reset] zeroes them in place so
   handles held by live components stay valid. *)
let cells : cell Cell.t = Cell.create fresh_cell

(* A heap's own handle onto the audit cells: a heap records from one
   domain at a time, so its cached cell is never evicted. *)
type local = cell Cell.t

let local () = Cell.share cells

(* --- the ambient site ---

   Writes are gated on [Control.enabled]: the heap only reads the
   ambient site while enabled, and the disabled path must stay at one
   atomic load. *)

let current_site () = (Cell.get cells).site

(* Restores by hand rather than through [Fun.protect]: this brackets
   every workload allocation, and the closure [Fun.protect] allocates
   per call costs more than the bracket itself.  Taking the function and
   its argument separately lets a caller pass [malloc size] without
   building a closure. *)
let with_site id f x =
  if not (Control.enabled ()) then f x
  else begin
    let c = Cell.get cells in
    let prev = c.site in
    c.site <- id;
    match f x with
    | v ->
      c.site <- prev;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      c.site <- prev;
      Printexc.raise_with_backtrace e bt
  end

let grown a n =
  let len = Array.length a in
  if n < len then a
  else begin
    let a' = Array.make (max (n + 1) (2 * len)) 0 in
    Array.blit a 0 a' 0 len;
    a'
  end

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* [index * slot_buckets / capacity]: a region's capacity is a power of
   two in practice, and then the bucket is a shift.  The cell remembers
   each class's last capacity and its log2, so the test costs a compare,
   not a division. *)
let slot_bucket c ~class_ ~index ~capacity =
  if c.capacity_seen.(class_) <> capacity then begin
    c.capacity_seen.(class_) <- capacity;
    c.capacity_log2.(class_) <- (if capacity land (capacity - 1) = 0 then log2 capacity else -1)
  end;
  let k = c.capacity_log2.(class_) in
  let b = if k >= 0 then (index * slot_buckets) lsr k else index * slot_buckets / capacity in
  if b < slot_buckets then b else slot_buckets - 1

let record_alloc lc ~class_ ~index ~capacity =
  if not (Control.enabled ()) then unknown
  else begin
    let c = Cell.get lc in
    let site = c.site in
    if class_ >= 0 && class_ < max_classes then begin
      c.allocs.(class_) <- c.allocs.(class_) + 1;
      if capacity > 0 && index >= 0 then begin
        let i = (class_ * slot_buckets) + slot_bucket c ~class_ ~index ~capacity in
        c.slot_hist.(i) <- c.slot_hist.(i) + 1
      end;
      if site >= 0 then begin
        if site >= Array.length c.by_site_allocs then
          c.by_site_allocs <- grown c.by_site_allocs site;
        c.by_site_allocs.(site) <- c.by_site_allocs.(site) + 1
      end
    end;
    site
  end

let record_free lc ~class_ ~site =
  if Control.enabled () && class_ >= 0 && class_ < max_classes then begin
    let c = Cell.get lc in
    c.frees.(class_) <- c.frees.(class_) + 1;
    if site >= 0 then begin
      if site >= Array.length c.by_site_frees then
        c.by_site_frees <- grown c.by_site_frees site;
      c.by_site_frees.(site) <- c.by_site_frees.(site) + 1
    end
  end

let record_failed lc ~class_ =
  if Control.enabled () && class_ >= 0 && class_ < max_classes then begin
    let c = Cell.get lc in
    c.failed.(class_) <- c.failed.(class_) + 1
  end

(* --- attributed events ---

   Canary/fault/rescue attributions are rare (per incident, not per
   allocation), so a mutex per record is fine. *)

type events = { mutable ev_canaries : int; mutable ev_faults : int; mutable ev_rescues : int }

let events_lock = Mutex.create ()
let events_by_site : (int, events) Hashtbl.t = Hashtbl.create 16

let events_for site =
  match Hashtbl.find_opt events_by_site site with
  | Some e -> e
  | None ->
    let e = { ev_canaries = 0; ev_faults = 0; ev_rescues = 0 } in
    Hashtbl.add events_by_site site e;
    e

let record_event ~site f =
  if Control.enabled () then
    Mutex.protect events_lock (fun () -> f (events_for site))

let record_canary ~site = record_event ~site (fun e -> e.ev_canaries <- e.ev_canaries + 1)
let record_fault ~site = record_event ~site (fun e -> e.ev_faults <- e.ev_faults + 1)
let record_rescue ~site = record_event ~site (fun e -> e.ev_rescues <- e.ev_rescues + 1)

(* --- reading --- *)

type class_stat = {
  cls : int;
  allocs : int;
  frees : int;
  failed : int;
  slot_hist : int array;
}

type site_stat = {
  site_id : int;
  name : string;
  s_allocs : int;
  s_frees : int;
  canaries : int;
  faults : int;
  rescues : int;
}

type snapshot = {
  classes : class_stat array;
  sites : site_stat list;
}

(* The per-site half of [snapshot]: each cell's site counters summed
   into one array per counter, without merging the class histograms. *)
let sites () =
  let n = site_count () in
  let allocs = Array.make n 0 and frees = Array.make n 0 in
  let merge dst src =
    for id = 0 to min n (Array.length src) - 1 do
      dst.(id) <- dst.(id) + src.(id)
    done
  in
  Cell.fold
    (fun () (c : cell) ->
      merge allocs c.by_site_allocs;
      merge frees c.by_site_frees)
    () cells;
  let stat id =
    let s_allocs = allocs.(id) and s_frees = frees.(id) in
    let canaries, faults, rescues =
      match Mutex.protect events_lock (fun () -> Hashtbl.find_opt events_by_site id) with
      | None -> (0, 0, 0)
      | Some e -> (e.ev_canaries, e.ev_faults, e.ev_rescues)
    in
    if s_allocs = 0 && s_frees = 0 && canaries = 0 && faults = 0 && rescues = 0 then None
    else Some { site_id = id; name = site_name id; s_allocs; s_frees; canaries; faults; rescues }
  in
  List.filter_map stat (List.init n Fun.id)

let snapshot () =
  let merged = Cell.fold (fun acc c -> c :: acc) [] cells in
  let classes =
    Array.init max_classes (fun cls ->
        let sum field =
          List.fold_left (fun acc (c : cell) -> acc + (field c).(cls)) 0 merged
        in
        let slot_hist =
          Array.init slot_buckets (fun b ->
              List.fold_left
                (fun acc (c : cell) -> acc + c.slot_hist.((cls * slot_buckets) + b))
                0 merged)
        in
        {
          cls;
          allocs = sum (fun c -> c.allocs);
          frees = sum (fun c -> c.frees);
          failed = sum (fun c -> c.failed);
          slot_hist;
        })
  in
  { classes; sites = sites () }

let severity s = s.canaries + s.faults + s.rescues

let top_sites sites =
  let ranked =
    List.filter (fun s -> severity s > 0 || s.s_allocs > 0) sites
    |> List.sort (fun a b ->
           match compare (severity b) (severity a) with
           | 0 -> (
             match compare b.s_allocs a.s_allocs with
             | 0 -> compare a.site_id b.site_id
             | c -> c)
           | c -> c)
  in
  List.filteri (fun i _ -> i < 5) ranked

(* --- arithmetic guards ---

   Mirrors the Stats.pp guards: a class that never allocated must read
   as rate 0, not NaN. *)

let ratio num den = if den <= 0 then 0. else float_of_int num /. float_of_int den

let entropy_bits hist =
  let total = Array.fold_left ( + ) 0 hist in
  if total <= 0 then 0.
  else
    Array.fold_left
      (fun acc n ->
        if n = 0 then acc
        else begin
          let p = float_of_int n /. float_of_int total in
          acc -. (p *. log p /. log 2.)
        end)
      0. hist

let reset () =
  Cell.fold
    (fun () (c : cell) ->
      c.site <- unknown;
      Array.fill c.allocs 0 max_classes 0;
      Array.fill c.frees 0 max_classes 0;
      Array.fill c.failed 0 max_classes 0;
      Array.fill c.slot_hist 0 (max_classes * slot_buckets) 0;
      Array.fill c.by_site_allocs 0 (Array.length c.by_site_allocs) 0;
      Array.fill c.by_site_frees 0 (Array.length c.by_site_frees) 0)
    () cells;
  Mutex.protect sites_lock (fun () ->
      Hashtbl.reset site_ids;
      n_sites := 0;
      ignore (intern_unlocked "unknown"));
  Mutex.protect events_lock (fun () -> Hashtbl.reset events_by_site)
