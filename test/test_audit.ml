(* Tests for the safety-margin audit layer: site interning and the
   ambient-site channel, heap provenance attribution (from the
   ambient site, retained across free for dangling blame), threshold-refusal
   counting, slot entropy, the guarded ratios behind every rate the
   audit reports, the Margin bound evaluation at degenerate occupancies
   and against the heap it is handed (its occupancy and its own audit's
   flows, never another heap's),
   empirical outcome tallies, and the write-only contract: a run's
   output must be byte-identical with the audit on or off.  A heap
   audits when its address space was built with obs on. *)

module Recorder = Dh_obs.Recorder
module Audit = Dh_obs.Audit
module Margin = Dh_analysis.Margin
module Heap = Diehard.Heap
module Config = Diehard.Config
module Allocator = Dh_alloc.Allocator
module Program = Dh_alloc.Program

(* DieHard's malloc and free, through the allocator record the system
   calls. *)
let heap_malloc h = (Heap.allocator h).Allocator.malloc
let heap_free h = (Heap.allocator h).Allocator.free

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let fresh_heap ?(obs = true) ?(heap_size = 12 * 64 * 1024) ?(seed = 7) () =
  let config = Config.v ~heap_size ~seed () in
  Heap.create ~config (Dh_mem.Mem.create ~obs ())

(* The heap's address space's obs state, which holds its ambient site. *)
let obs_of heap = Dh_mem.Mem.recorder (Heap.mem heap)

let class_margin (r : Margin.report) cls =
  List.find (fun c -> c.Margin.cm_class = cls) r.Margin.classes

(* --- sites and the ambient channel ---------------------------------- *)

let test_site_interning () =
  let a = Audit.site "alpha" in
  let b = Audit.site "beta" in
  check "distinct names, distinct ids" true (a <> b);
  check_int "interning is idempotent" a (Audit.site "alpha");
  check_str "name round-trips" "alpha" (Audit.site_name a);
  check_str "unknown id 0" "unknown" (Audit.site_name Audit.unknown);
  check_str "out-of-range id reads a placeholder" "?" (Audit.site_name 9999);
  check "interned names keep their ids" true
    (List.map Audit.site_name [ Audit.unknown; a; b ] = [ "unknown"; "alpha"; "beta" ])

let test_ambient_site () =
  let obs = Recorder.create ~on:true and other = Recorder.create ~on:true in
  let s = Audit.site "ambient" in
  check_int "default ambient is unknown" Audit.unknown (Recorder.site obs);
  let inside = Audit.with_site obs s Recorder.site obs in
  check_int "with_site sets the ambient site" s inside;
  check_int "another space's site is untouched" Audit.unknown
    (Audit.with_site obs s Recorder.site other);
  check_int "with_site restores on exit" Audit.unknown (Recorder.site obs);
  (* exception-safe restore *)
  (try Audit.with_site obs s failwith "boom" with Failure _ -> ());
  check_int "restored after raise" Audit.unknown (Recorder.site obs);
  (* Off: the channel is inert and the thunk still runs. *)
  let obs = Recorder.create ~on:false in
  let r =
    Audit.with_site obs 42
      (fun x ->
        check_int "with_site on an obs-off space does not set" Audit.unknown
          (Recorder.site obs);
        x + 1)
      16
  in
  check_int "result passes through" 17 r

(* --- heap provenance ------------------------------------------------- *)

let test_heap_attribution () =
  let heap = fresh_heap () in
  let s_p = Audit.site "test:p" in
  let s_q = Audit.site "test:q" in
  let p = Audit.with_site (obs_of heap) s_p (heap_malloc heap) 64 in
  let q = Audit.with_site (obs_of heap) s_q (heap_malloc heap) 64 in
  check_int "p's site attributed" s_p (Option.get (Heap.site_of_addr heap p));
  check_int "q's site attributed" s_q (Option.get (Heap.site_of_addr heap q));
  let alloc = Heap.allocator heap in
  alloc.Allocator.free p;
  (* Provenance survives free: the last owner is exactly who a
     dangling-pointer incident should blame. *)
  check_int "site retained after free" s_p
    (Option.get (Heap.site_of_addr heap p));
  let snap = Audit.snapshot [ Heap.audit heap ] in
  let stat name =
    List.find (fun (s : Audit.site_stat) -> s.Audit.name = name)
      snap.Audit.sites
  in
  check_int "per-site alloc count" 1 (stat "test:p").Audit.s_allocs;
  check_int "per-site free count" 1 (stat "test:p").Audit.s_frees;
  check_int "other site alloc counted" 1 (stat "test:q").Audit.s_allocs

(* A fault on the hole page past a size-class region is an access that
   ran off the region's end: it is blamed on the nearest allocated slot
   below it, and on nothing once that region holds no live slot. *)
let test_fault_past_region () =
  let heap = fresh_heap () in
  let s_p = Audit.site "test:p" and s_q = Audit.site "test:q" in
  let p = Audit.with_site (obs_of heap) s_p (heap_malloc heap) 64 in
  let q = Audit.with_site (obs_of heap) s_q (heap_malloc heap) 64 in
  let class_ = Dh_alloc.Size_class.of_size_exn 64 in
  let hole =
    Option.get (Heap.region_base heap ~class_) + (Heap.region_capacity heap ~class_ * 64)
  in
  let upper, s_upper, s_lower = if p > q then (p, s_p, s_q) else (q, s_q, s_p) in
  let blamed addr = Heap.fault_site heap addr in
  check "the hole page blames the higher slot" true (blamed hole = Some s_upper);
  check "its last byte too" true (blamed (hole + Dh_mem.Mem.page_size - 1) = Some s_upper);
  check "a slot blames itself" true (blamed p = Some s_p);
  check "an address outside the heap is unknown" true (blamed 0 = Some Audit.unknown);
  let alloc = Heap.allocator heap in
  alloc.Allocator.free upper;
  check "a freed slot is passed over" true (blamed hole = Some s_lower);
  alloc.Allocator.free (if upper = p then q else p);
  check "no live slot, no blame" true (blamed hole = None)

(* A large object (above 16 KB) keeps its provenance after free too: a
   dangling read inside its old payload faults Unmapped, and that
   address still names the site that allocated the object. *)
let test_large_site_after_free () =
  let heap = fresh_heap () in
  let s = Audit.site "test:large" in
  let p = Audit.with_site (obs_of heap) s (heap_malloc heap) 20_000 in
  heap_free heap p;
  let addr = p + 100 in
  (match Dh_mem.Mem.read8 (Heap.mem heap) addr with
  | _ -> Alcotest.fail "dangling read of a freed large object did not fault"
  | exception Dh_mem.Fault.Error (Dh_mem.Fault.Unmapped { addr = at; _ }) ->
    check_int "Unmapped at the read address" addr at
  | exception Dh_mem.Fault.Error f ->
    Alcotest.failf "wrong fault: %s" (Dh_mem.Fault.to_string f));
  check_str "site of the freed large object" "test:large"
    (match Heap.site_of_addr heap addr with
    | Some id -> Audit.site_name id
    | None -> "none")

(* The per-slot site table starts at one byte per slot and widens when
   an id needs it; every slot's site must survive each widening. *)
let test_site_table_widens () =
  let heap = fresh_heap () in
  let sites = [ 5; 255; 256; 65_535; 65_536; 70_000 ] in
  let addrs =
    List.map
      (fun site ->
        (site, Audit.with_site (obs_of heap) site (heap_malloc heap) 64))
      sites
  in
  List.iter
    (fun (site, p) ->
      check_int
        (Printf.sprintf "site %d kept" site)
        site
        (Option.get (Heap.site_of_addr heap p)))
    addrs;
  let alloc = Heap.allocator heap in
  List.iter (fun (_, p) -> alloc.Allocator.free p) addrs;
  List.iter
    (fun (site, p) ->
      check_int
        (Printf.sprintf "site %d kept after free" site)
        site
        (Option.get (Heap.site_of_addr heap p)))
    addrs

let test_threshold_refusals_counted () =
  let heap = fresh_heap () in
  let threshold = Config.threshold (Heap.config heap) ~class_:3 in
  for _ = 1 to threshold do
    ignore (heap_malloc heap 64)
  done;
  check "threshold refuses the next" true (heap_malloc heap 64 = Allocator.null);
  let snap = Audit.snapshot [ Heap.audit heap ] in
  let c = snap.Audit.classes.(3) in
  check_int "allocs audited" threshold c.Audit.allocs;
  check "refusal audited" true (c.Audit.failed >= 1);
  (* and the margin report reads the class at threshold off the heap *)
  let m = class_margin (Margin.of_heap heap) 3 in
  check_int "occupancy live" threshold m.Margin.cm_live;
  check_int "occupancy threshold" threshold m.Margin.cm_threshold

(* The margin report reads the heap it is handed, not the newest one,
   whether or not that heap's space has obs on: occupancy comes from the
   heap, and only its audited flows need obs. *)
let test_margin_reads_its_heap () =
  let a = fresh_heap ~obs:false () in
  let threshold = Config.threshold (Heap.config a) ~class_:3 in
  let site = Audit.site "test:fill" in
  for _ = 1 to threshold do
    ignore (Audit.with_site (obs_of a) site (heap_malloc a) 64)
  done;
  let _b = fresh_heap ~seed:8 () in
  let m = class_margin (Margin.of_heap a) 3 in
  check_int "live at threshold" threshold m.Margin.cm_live;
  check_int "threshold" threshold m.Margin.cm_threshold;
  check_int "capacity" (Heap.region_capacity a ~class_:3) m.Margin.cm_capacity;
  check_int "no audited allocs with obs off" 0 m.Margin.cm_allocs;
  let a = fresh_heap () in
  for _ = 1 to 100 do
    ignore (heap_malloc a 32)
  done;
  let _b = fresh_heap ~seed:8 () in
  let m = class_margin (Margin.of_heap a) 2 in
  check_int "the older heap's live objects" 100 m.Margin.cm_live

(* Two heaps on one domain: each margin report holds its own heap's
   allocations, slot samples and sites, and none of the other's. *)
let test_margin_own_flows () =
  let small = Audit.site "test:small" and big = Audit.site "test:big" in
  let h1 = fresh_heap () and h2 = fresh_heap ~seed:8 () in
  for _ = 1 to 10 do
    ignore (Audit.with_site (obs_of h1) small (heap_malloc h1) 64)
  done;
  for _ = 1 to 100 do
    ignore (Audit.with_site (obs_of h2) big (heap_malloc h2) 64)
  done;
  let own heap ~site ~n =
    let r = Margin.of_heap heap in
    let m = class_margin r 3 in
    check_int "live" n m.Margin.cm_live;
    check_int "allocs" n m.Margin.cm_allocs;
    check_int "samples" n m.Margin.cm_samples;
    Alcotest.(check (list (pair string int)))
      "sites" [ (Audit.site_name site, n) ]
      (List.map (fun (s : Audit.site_stat) -> (s.Audit.name, s.Audit.s_allocs)) r.Margin.sites)
  in
  own h1 ~site:small ~n:10;
  own h2 ~site:big ~n:100

(* --- entropy and guarded ratios -------------------------------------- *)

let test_entropy () =
  let uniform = Array.make Audit.slot_buckets 10 in
  let ideal = log (float_of_int Audit.slot_buckets) /. log 2. in
  check "uniform hist reaches the ideal" true
    (Float.abs (Audit.entropy_bits uniform -. ideal) < 1e-9);
  let point = Array.make Audit.slot_buckets 0 in
  point.(5) <- 100;
  check "point mass has zero entropy" true (Audit.entropy_bits point = 0.);
  check "empty hist is 0, not NaN" true
    (Audit.entropy_bits (Array.make Audit.slot_buckets 0) = 0.)

let test_ratio_guard () =
  check "0/0 is 0" true (Audit.ratio 0 0 = 0.);
  check "n/0 is 0, not inf" true (Audit.ratio 5 0 = 0.);
  check "negative denominator guarded" true (Audit.ratio 5 (-1) = 0.);
  check "ordinary ratio" true (Audit.ratio 1 4 = 0.25);
  check "never NaN" false (Float.is_nan (Audit.ratio 0 0))

let test_margin_degenerate_occupancy () =
  (* A full class (live = capacity) must not divide by zero or raise in
     the Theorem 2 evaluation; an empty snapshot yields no classes. *)
  let heap = fresh_heap () in
  let threshold = Config.threshold (Heap.config heap) ~class_:3 in
  for _ = 1 to threshold do
    ignore (heap_malloc heap 64)
  done;
  let r = Margin.of_heap heap in
  List.iter
    (fun c ->
      check "occupancy finite" false (Float.is_nan c.Margin.cm_occupancy);
      check "overflow bound finite" false
        (Float.is_nan c.Margin.cm_overflow_mask);
      check "dangling bound finite" false
        (Float.is_nan c.Margin.cm_dangling_mask))
    r.Margin.classes;
  check "stand-alone detects no uninit reads" true (r.Margin.uninit_detect = 0.);
  let r = Margin.of_heap (fresh_heap ()) in
  check "empty snapshot of an unmapped heap has no classes" true
    (r.Margin.classes = [])

(* --- empirical rates and offender ranking ----------------------------- *)

(* The margin report renders masking tallies it is handed; a snapshot
   alone carries none. *)
let test_empirical_rates () =
  let r = Margin.of_heap (fresh_heap ()) in
  check "a snapshot carries no tallies" true (r.Margin.empirical = []);
  let em kind masked trials =
    {
      Margin.em_kind = kind;
      em_masked = masked;
      em_trials = trials;
      em_rate = Audit.ratio masked trials;
    }
  in
  let r = { r with Margin.empirical = [ em "overflow" 4 6; em "dangling" 0 0 ] } in
  let text = Format.asprintf "%a" Margin.pp r in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check "overflow rate printed" true
    (contains ~sub:"overflow 4/6 masked (rate 0.6667" text);
  check "no trials reads as rate 0" true
    (contains ~sub:"dangling 0/0 masked (rate 0.0000" text);
  let json = Margin.to_json r in
  check "json carries the tally" true
    (contains ~sub:"{\"kind\":\"overflow\",\"masked\":4,\"trials\":6,\"rate\":0.666667}" json)

let test_top_sites_ranking () =
  let noisy = Audit.site "noisy" in
  let guilty = Audit.site "guilty" in
  let heap = fresh_heap () in
  for _ = 1 to 10 do
    ignore (Audit.with_site (obs_of heap) noisy (heap_malloc heap) 64)
  done;
  ignore (Audit.with_site (obs_of heap) guilty (heap_malloc heap) 64);
  for i = 1 to 6 do
    let quiet = Audit.site (Printf.sprintf "quiet%d" i) in
    ignore (Audit.with_site (obs_of heap) quiet (heap_malloc heap) 64)
  done;
  let sites = (Audit.snapshot [ Heap.audit heap ]).Audit.sites in
  let ids = List.map (fun s -> s.Audit.site_id) sites in
  check "every active site, by id" true
    (ids = List.sort_uniq compare ids && List.length ids = 8);
  (* A snapshot attributes no events; the caller that blamed a site
     (the supervisor, for its incident) adds them. *)
  check "a snapshot carries no events" true
    (List.for_all (fun s -> s.Audit.canaries + s.Audit.faults + s.Audit.rescues = 0) sites);
  let blamed =
    List.map
      (fun s -> if s.Audit.site_id = guilty then { s with Audit.canaries = 1; faults = 1 } else s)
      sites
  in
  let ranked = Audit.top_sites blamed in
  check_int "top five of eight sites" 5 (List.length ranked);
  match ranked with
  | first :: second :: _ ->
    check_str "faulting site outranks the merely busy" "guilty"
      first.Audit.name;
    check_int "events counted" 1 first.Audit.canaries;
    check_int "faults counted" 1 first.Audit.faults;
    check_str "volume breaks ties" "noisy" second.Audit.name
  | _ -> Alcotest.fail "expected two ranked sites"

(* --- the write-only contract ----------------------------------------- *)

let run_server ~obs ~requests () =
  let program = Dh_workload.Server.program ~requests () in
  let config = Config.v ~heap_size:Dh_workload.Server.heap_size ~seed:11 () in
  let heap = Heap.create ~config (Dh_mem.Mem.create ~obs ()) in
  let result = Program.run program (Heap.allocator heap) in
  (result.Dh_mem.Process.output, heap)

let test_write_only_invariance () =
  let off, _ = run_server ~obs:false ~requests:512 () in
  let on, audited =
    let on, heap = run_server ~obs:true ~requests:512 () in
    (on, (Audit.snapshot [ Heap.audit heap ]).Audit.sites <> [])
  in
  check_str "audited output is byte-identical" off on;
  check "audited run produced output" true (String.length on > 0);
  check "the audited run audited" true audited

let suite =
  [
    Alcotest.test_case "site: interning and names" `Quick test_site_interning;
    Alcotest.test_case "site: ambient channel" `Quick test_ambient_site;
    Alcotest.test_case "heap: ambient site attribution" `Quick test_heap_attribution;
    Alcotest.test_case "heap: a fault past a region blames the slot below" `Quick
      test_fault_past_region;
    Alcotest.test_case "heap: freed large object keeps its site" `Quick
      test_large_site_after_free;
    Alcotest.test_case "heap: site table widens for large ids" `Quick
      test_site_table_widens;
    Alcotest.test_case "heap: threshold refusals audited" `Quick
      test_threshold_refusals_counted;
    Alcotest.test_case "entropy: uniform, point mass, empty" `Quick test_entropy;
    Alcotest.test_case "ratio: div-by-zero guards" `Quick test_ratio_guard;
    Alcotest.test_case "margin: reads the heap it is given" `Quick
      test_margin_reads_its_heap;
    Alcotest.test_case "margin: each heap sees only its own flows" `Quick
      test_margin_own_flows;
    Alcotest.test_case "margin: degenerate occupancies stay finite" `Quick
      test_margin_degenerate_occupancy;
    Alcotest.test_case "margin: empirical rates render" `Quick test_empirical_rates;
    Alcotest.test_case "sites: severity ranks above volume" `Quick
      test_top_sites_ranking;
    Alcotest.test_case "audit is write-only: output identical on/off" `Quick
      test_write_only_invariance;
  ]
