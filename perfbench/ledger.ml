(* Measurement plumbing shared by the three workloads: a nanosecond
   monotonic clock, a log-linear latency histogram, an in-memory span
   recorder whose self times make the per-layer table, and the exact
   counters every pass must reproduce bit for bit.

   Spans are opened and closed only here, around calls into a layer's
   public functions (a service's init/handle, an allocator's
   malloc/free, Driver.run, Replicated.run, a replica's main, ...).
   Nothing under lib/ is instrumented, so a change to a layer —
   Dh_obs included — cannot move the ruler. *)

module Allocator = Dh_alloc.Allocator
module Mem = Dh_mem.Mem

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9

(* [f ()] and how long it took, in ns. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

(* The [q] quantile of [xs], interpolating between order statistics. *)
let quantile q xs =
  match Array.of_list (List.sort compare xs) with
  | [||] -> nan
  | s ->
    let h = q *. float_of_int (Array.length s - 1) in
    let i = int_of_float h in
    if i + 1 >= Array.length s then s.(i)
    else s.(i) +. ((h -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median = quantile 0.5

(* Log-linear histogram of nanosecond samples: one bucket per ns below
   2048 ns, then 1024 buckets per power of two.  A quantile interpolates
   linearly inside its bucket, so it is within 0.1% of the sample. *)
module Hist = struct
  let bits = 10
  let sub = 1 lsl bits

  type t = { counts : int array; mutable total : int }

  let create () = { counts = Array.make (sub * (64 - bits)) 0; total = 0 }

  let index v =
    if v < 2 * sub then max v 0
    else begin
      let e = ref (bits + 1) in
      while v lsr (!e + 1) <> 0 do
        incr e
      done;
      (sub * (!e - bits + 1)) + ((v lsr (!e - bits)) - sub)
    end

  (* Lowest value and width of bucket [i]. *)
  let bounds i =
    if i < 2 * sub then (i, 1)
    else
      let shift = (i / sub) - 1 in
      ((sub + (i mod sub)) lsl shift, 1 lsl shift)

  let clear t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.total <- 0

  let add t v =
    let i = index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let rank t q = max 1 (int_of_float (Float.ceil (q *. float_of_int t.total)))

  let quantile t q =
    let rank = rank t q in
    let rec go i before =
      let c = t.counts.(i) in
      if before + c >= rank then
        let lo, width = bounds i in
        float_of_int lo
        +. (float_of_int width *. (float_of_int (rank - before) -. 0.5) /. float_of_int c)
      else go (i + 1) (before + c)
    in
    if t.total = 0 then nan else go 0 0

  (* Samples strictly beyond the [q] quantile's rank. *)
  let beyond t q = t.total - rank t q
end

(* --- spans --- *)

type kind =
  | Supervisor_run
  | Server_init
  | Server_handle
  | Heap_malloc
  | Heap_free
  | Driver_run
  | Freelist_run
  | Replicated_run
  | Interp_main
  | Minic_parse
  | Setup

let kind_name = function
  | Supervisor_run -> "Supervisor.run"
  | Server_init -> "service.init"
  | Server_handle -> "service.handle"
  | Heap_malloc -> "malloc"
  | Heap_free -> "free"
  | Driver_run -> "Driver.run"
  | Freelist_run -> "freelist-lea"
  | Replicated_run -> "Replicated.run"
  | Interp_main -> "replica main"
  | Minic_parse -> "Interp.program_of_source"
  | Setup -> "set-up"

(* The per-layer row a span's self time is charged to. *)
let row = function
  | Supervisor_run -> "supervisor.self_s"
  | Server_init | Server_handle -> "server.self_s"
  | Heap_malloc -> "heap.malloc_s"
  | Heap_free -> "heap.free_s"
  | Driver_run -> "driver.self_s"
  | Freelist_run -> "freelist.s"
  | Replicated_run -> "replicated.self_s"
  | Interp_main -> "interp.self_s"
  | Minic_parse -> "minic.parse_s"
  | Setup -> "setup.self_s"

type spans = {
  mutable len : int;
  mutable kind : kind array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
}

let spans = { len = 0; kind = [||]; start = [||]; stop = [||]; parent = [||]; req = [||] }
let on = ref false
let current = ref (-1)

(* The serve request being handled, stamped on every span opened
   inside it; -1 outside a request. *)
let request = ref (-1)

let grow () =
  let cap = max 4096 (2 * Array.length spans.start) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 spans.len;
    b
  in
  spans.kind <- extend spans.kind Setup;
  spans.start <- extend spans.start 0;
  spans.stop <- extend spans.stop 0;
  spans.parent <- extend spans.parent (-1);
  spans.req <- extend spans.req (-1)

let enter k =
  if spans.len = Array.length spans.start then grow ();
  let i = spans.len in
  spans.len <- i + 1;
  spans.kind.(i) <- k;
  spans.parent.(i) <- !current;
  spans.req.(i) <- !request;
  current := i;
  spans.start.(i) <- now_ns ();
  i

let leave i =
  spans.stop.(i) <- now_ns ();
  current := spans.parent.(i)

(* [span k f] runs [f ()] inside a span of kind [k] while recording;
   an exception (a simulated fault unwinding a request) closes it. *)
let span k f =
  if not !on then f ()
  else begin
    let i = enter k in
    match f () with
    | v ->
      leave i;
      v
    | exception e ->
      leave i;
      raise e
  end

(* Run [f] with recording paused: reference runs on freelist-lea and
   set-up work are charged to their enclosing span as a whole. *)
let suspend f =
  let was = !on in
  on := false;
  Fun.protect ~finally:(fun () -> on := was) f

let start () =
  spans.len <- 0;
  current := -1;
  request := -1;
  on := true

let stop () = on := false

(* Self time per row: each span's duration minus its children's. *)
let self_times () =
  let dur i = spans.stop.(i) - spans.start.(i) in
  let children = Array.make spans.len 0 in
  for i = 0 to spans.len - 1 do
    let p = spans.parent.(i) in
    if p >= 0 then children.(p) <- children.(p) + dur i
  done;
  let totals = Hashtbl.create 16 in
  for i = 0 to spans.len - 1 do
    let r = row spans.kind.(i) in
    let prev = Option.value (Hashtbl.find_opt totals r) ~default:0 in
    Hashtbl.replace totals r (prev + dur i - children.(i))
  done;
  Hashtbl.fold (fun r ns acc -> (r, seconds ns) :: acc) totals []
  |> List.sort compare

let write_spans path =
  let oc = open_out path in
  output_string oc "id,name,start_ns,end_ns,parent,request\n";
  let t0 = if spans.len > 0 then spans.start.(0) else 0 in
  for i = 0 to spans.len - 1 do
    Printf.fprintf oc "%d,%s,%d,%d,%d,%d\n" i (kind_name spans.kind.(i))
      (spans.start.(i) - t0) (spans.stop.(i) - t0) spans.parent.(i) spans.req.(i)
  done;
  close_out oc

(* --- allocator boundary --- *)

type calls = {
  mutable mallocs : int;
  mutable frees : int;
  step : Hist.t option;
      (** Where to record the time from one malloc call to the next: the
          work a program does per allocation, allocator included. *)
  mutable last_malloc : int;  (** ns; 0 starts a new run of steps. *)
}

let calls ?step () = { mallocs = 0; frees = 0; step; last_malloc = 0 }

(* Count every malloc/free call into [a] and, while recording, span it. *)
let wrap_alloc calls (a : Allocator.t) =
  {
    a with
    Allocator.malloc =
      (fun sz ->
        calls.mallocs <- calls.mallocs + 1;
        (match calls.step with
        | Some h ->
          let t = now_ns () in
          if calls.last_malloc > 0 then Hist.add h (t - calls.last_malloc);
          calls.last_malloc <- t
        | None -> ());
        if !on then span Heap_malloc (fun () -> a.Allocator.malloc sz)
        else a.Allocator.malloc sz);
    free =
      (fun p ->
        calls.frees <- calls.frees + 1;
        if !on then span Heap_free (fun () -> a.Allocator.free p) else a.Allocator.free p);
  }

let freelist () = Dh_alloc.Freelist.(allocator (create (Mem.create ())))

(* --- exact counters --- *)

(* Work counters of an address space (cumulative; subtract two readings
   for the work of a phase). *)
let mem_ops mem =
  let s = Mem.stats mem in
  [
    ("mem.reads", s.Mem.reads);
    ("mem.writes", s.Mem.writes);
    ("mem.tlb_misses", s.Mem.tlb_misses);
    ("mem.cache_misses", s.Mem.cache_misses);
    ("mem.mmaps", s.Mem.mmaps);
  ]

(* Page counts of an address space at this instant. *)
let mem_pages mem =
  [ ("touched_pages", Mem.touched_pages mem); ("mem.meshed_pages", Mem.meshed_pages mem) ]

let heap_stats (s : Dh_alloc.Stats.t) =
  [
    ("heap.probes", s.Dh_alloc.Stats.probes);
    ("heap.probed_mallocs", s.Dh_alloc.Stats.mallocs + s.Dh_alloc.Stats.failed_mallocs);
    ("heap.failed_mallocs", s.Dh_alloc.Stats.failed_mallocs);
    ("heap.ignored_frees", s.Dh_alloc.Stats.ignored_frees);
  ]

let get counters k = Option.value (List.assoc_opt k counters) ~default:0

(* Key-wise [a + sign * b], keeping [a]'s key order and appending keys
   only [b] has. *)
let combine sign a b =
  let keys = List.map fst a @ List.filter (fun k -> not (List.mem_assoc k a)) (List.map fst b) in
  List.map (fun k -> (k, get a k + (sign * get b k))) keys

let sum a b = combine 1 a b
let diff a b = combine (-1) a b

(* The counter of a "key=<int>" field in program output, last one wins. *)
let field ~key output =
  let tag = key ^ "=" in
  let n = String.length output and t = String.length tag in
  let rec last i found =
    if i + t > n then found
    else if String.sub output i t = tag then last (i + 1) (Some (i + t))
    else last (i + 1) found
  in
  match last 0 None with
  | None -> None
  | Some s ->
    let e = ref s in
    while !e < n && output.[!e] >= '0' && output.[!e] <= '9' do
      incr e
    done;
    int_of_string_opt (String.sub output s (!e - s))
