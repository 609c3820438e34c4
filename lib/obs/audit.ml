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

let site_count () = Mutex.protect sites_lock (fun () -> !n_sites)

let site_name id =
  Mutex.protect sites_lock (fun () ->
      if id >= 0 && id < !n_sites then !site_names.(id) else "?")

(* --- the ambient site ---

   Wrappers between the workload and the heap forward bare
   [int -> int] closures, so the site travels out of band, on the
   allocator's address space: its recorder holds the ambient site.
   Writes are gated on that space's obs flag: the heap only reads the
   ambient site while obs is on, and the off path must stay at one
   field load. *)

(* Restores by hand rather than through [Fun.protect]: this brackets
   every workload allocation, and the closure [Fun.protect] allocates
   per call costs more than the bracket itself.  Taking the function and
   its argument separately lets a caller pass [malloc size] without
   building a closure. *)
let with_site obs id f x =
  if not (Recorder.on obs) then f x
  else begin
    let prev = Recorder.site obs in
    Recorder.set_site obs id;
    match f x with
    | v ->
      Recorder.set_site obs prev;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Recorder.set_site obs prev;
      Printexc.raise_with_backtrace e bt
  end

(* --- one heap's audit ---

   Plain arrays: a heap records from one domain at a time.  Site
   counters grow on demand — site ids are dense, so flat arrays indexed
   by id stay small. *)

type t = {
  obs : Recorder.t;  (* the heap's address space's: its flag and ambient site *)
  allocs : int array;  (* per class *)
  frees : int array;
  failed : int array;
  slot_hist : int array;  (* max_classes * slot_buckets, row-major *)
  mutable by_site_allocs : int array;  (* per site id, grown on demand *)
  mutable by_site_frees : int array;
  capacity_seen : int array;  (* per class: the last region capacity recorded *)
  capacity_log2 : int array;  (* its log2, or -1 when not a power of two *)
}

let create obs =
  {
    obs;
    allocs = Array.make max_classes 0;
    frees = Array.make max_classes 0;
    failed = Array.make max_classes 0;
    slot_hist = Array.make (max_classes * slot_buckets) 0;
    by_site_allocs = Array.make 8 0;
    by_site_frees = Array.make 8 0;
    capacity_seen = Array.make max_classes 0;
    capacity_log2 = Array.make max_classes (-1);
  }

(* The rare paths of the record functions below, which inline into the
   heap's malloc and free. *)
let[@inline never] grown a n =
  let len = Array.length a in
  if n < len then a
  else begin
    let a' = Array.make (max (n + 1) (2 * len)) 0 in
    Array.blit a 0 a' 0 len;
    a'
  end

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* [index * slot_buckets / capacity]: a region's capacity is a power of
   two in practice, and then the bucket is a shift.  The audit remembers
   each class's last capacity and its log2, so the test costs a compare,
   not a division. *)
let[@inline] slot_bucket a ~class_ ~index ~capacity =
  if a.capacity_seen.(class_) <> capacity then begin
    a.capacity_seen.(class_) <- capacity;
    a.capacity_log2.(class_) <- (if capacity land (capacity - 1) = 0 then log2 capacity else -1)
  end;
  let k = a.capacity_log2.(class_) in
  let b = if k >= 0 then (index * slot_buckets) lsr k else index * slot_buckets / capacity in
  if b < slot_buckets then b else slot_buckets - 1

let[@inline] record_alloc a ~class_ ~index ~capacity =
  if not (Recorder.on a.obs) then unknown
  else begin
    let site = Recorder.site a.obs in
    if class_ >= 0 && class_ < max_classes then begin
      a.allocs.(class_) <- a.allocs.(class_) + 1;
      if capacity > 0 && index >= 0 then begin
        let i = (class_ * slot_buckets) + slot_bucket a ~class_ ~index ~capacity in
        a.slot_hist.(i) <- a.slot_hist.(i) + 1
      end;
      if site >= 0 then begin
        if site >= Array.length a.by_site_allocs then
          a.by_site_allocs <- grown a.by_site_allocs site;
        a.by_site_allocs.(site) <- a.by_site_allocs.(site) + 1
      end
    end;
    site
  end

let[@inline] record_free a ~class_ ~site =
  if Recorder.on a.obs && class_ >= 0 && class_ < max_classes then begin
    a.frees.(class_) <- a.frees.(class_) + 1;
    if site >= 0 then begin
      if site >= Array.length a.by_site_frees then
        a.by_site_frees <- grown a.by_site_frees site;
      a.by_site_frees.(site) <- a.by_site_frees.(site) + 1
    end
  end

let record_failed a ~class_ =
  if Recorder.on a.obs && class_ >= 0 && class_ < max_classes then
    a.failed.(class_) <- a.failed.(class_) + 1

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

let snapshot (audits : t list) =
  let sum field i = List.fold_left (fun acc (a : t) -> acc + field a i) 0 audits in
  let classes =
    Array.init max_classes (fun cls ->
        {
          cls;
          allocs = sum (fun a i -> a.allocs.(i)) cls;
          frees = sum (fun a i -> a.frees.(i)) cls;
          failed = sum (fun a i -> a.failed.(i)) cls;
          slot_hist =
            Array.init slot_buckets (fun b ->
                sum (fun a i -> a.slot_hist.(i)) ((cls * slot_buckets) + b));
        })
  in
  (* Site counters are grown on demand, so an audit's arrays may stop
     short of an id another audit reached. *)
  let at arr id = if id < Array.length arr then arr.(id) else 0 in
  let stat id =
    let s_allocs = sum (fun a -> at a.by_site_allocs) id
    and s_frees = sum (fun a -> at a.by_site_frees) id in
    if s_allocs = 0 && s_frees = 0 then None
    else
      Some
        { site_id = id; name = site_name id; s_allocs; s_frees; canaries = 0; faults = 0; rescues = 0 }
  in
  { classes; sites = List.filter_map stat (List.init (site_count ()) Fun.id) }

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
