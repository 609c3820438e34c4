(* Simulator throughput microbenchmark.

   Measures the raw speed of the simulated-memory substrate and the
   allocators built on it -- the numbers the bulk-access fast paths
   (validate a page run once, then blit) are supposed to move:

   - allocation rate (ops/s) under DieHard, the Lea-style freelist, and
     the conservative GC;
   - bulk [Mem.fill] and [Mem.read_bytes]/[write_bytes] bandwidth against
     a bytewise [read8]/[write8] reference;
   - GC mark rate over a pointer chain (bulk payload reads);
   - [Bitmap.iter_clear] sweep rate over a nearly-full bitmap;
   - copy-on-write checkpointing: write-path cost plain vs armed, and
     rewind recovery vs from-scratch retry on the server attack run
     (see DESIGN.md, "Rewind-and-discard recovery");
   - the obs-enabled overhead on the diehard alloc churn, the obs
     records it makes per malloc and per free, and the minor-heap words
     a DieHard malloc and free allocate with obs off and on (exact);
   - parallel scaling of the {!Dh_parallel} execution engine: an 8-way
     replicated run and a fault-injection campaign, swept over
     [jobs in {1, 2, 4, 8}] up to [max 2 cores], recording wall-clock
     speedup and per-core efficiency, each width timed as the median of
     five runs interleaved with the other widths'.

   Each leg returns its metrics, named once; `throughput` prints the
   report they make ({!Gate.print}: the exact metrics on stdout, the
   wall-clock ones on stderr), and `throughput-gate` also writes
   BENCH_throughput.json and gates it (see [checks]).  The bench only
   times: that bulk and bytewise accesses charge alike, that parallel
   runs equal sequential ones and that rewinding never shows in the
   output are checked by `dune runtest` (suites bulk, parallel and
   checkpoint), on these builders and geometries. *)

module Mem = Dh_mem.Mem
module Allocator = Dh_alloc.Allocator
module Process = Dh_mem.Process
module Program = Dh_alloc.Program

type rate = { name : string; ops : int; bytes : int; seconds : float }

(* What a leg reports: its exact metrics and its wall-clock ones, in
   the shape {!Gate.v} takes. *)
type metrics = (string * Dh_obs.Json.t) list * (string * Dh_obs.Json.t) list

let ( ++ ) ((e, w) : metrics) ((e', w') : metrics) : metrics = (e @ e', w @ w')

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  max 1e-9 (Unix.gettimeofday () -. t0)

let ops_per_sec r = float_of_int r.ops /. r.seconds
let mb_per_sec r = float_of_int r.bytes /. (1024. *. 1024.) /. r.seconds

(* A rate's metrics: the operation count is exact, the time and the
   rates wall-clock; byte counts and bandwidths only for the rates that
   move bytes. *)
let rate_metrics x : metrics =
  let moves_bytes = x.bytes > 0 in
  ( ((x.name ^ ".ops", Gate.int x.ops)
    :: if moves_bytes then [ (x.name ^ ".bytes", Gate.int x.bytes) ] else []),
    [
      (x.name ^ ".seconds", Gate.float x.seconds);
      (x.name ^ ".ops_per_sec", Gate.float (ops_per_sec x));
    ]
    @ if moves_bytes then [ (x.name ^ ".mb_per_sec", Gate.float (mb_per_sec x)) ] else [] )

(* A slowdown of [slow] against [fast], in percent. *)
let overhead_pct ~fast ~slow = ((ops_per_sec fast /. ops_per_sec slow) -. 1.) *. 100.

(* --- allocation rate --- *)

(* A malloc/free churn with a bounded live set: the slot table recycles,
   so every allocator reaches its steady state (bins for the freelist,
   bitmap probing for DieHard, collections for the GC). *)
let alloc_bench ~ops name make =
  let alloc = make () in
  let space = alloc.Allocator.mem in
  let malloc = alloc.Allocator.malloc and free = alloc.Allocator.free in
  let sizes = [| 16; 24; 32; 48; 64; 96; 128; 256 |] in
  let live = Array.make 256 0 in
  let performed = ref 0 in
  let seconds =
    time (fun () ->
        for i = 0 to ops - 1 do
          let slot = i land 255 in
          if live.(slot) <> 0 then begin
            free live.(slot);
            live.(slot) <- 0;
            incr performed
          end;
          let p = malloc sizes.(i land 7) in
          if p <> Allocator.null then live.(slot) <- p;
          incr performed
        done)
  in
  Report.keep_trace (Dh_obs.Recorder.events (Mem.recorder space));
  { name; ops = !performed; bytes = 0; seconds }

(* The three churns, in the order they have always run (the GC
   first). *)
let alloc_benches ~quick ~obs =
  let ops = if quick then 20_000 else 200_000 in
  List.fold_left
    (fun acc (name, make) -> acc ++ rate_metrics (alloc_bench ~ops name make))
    ([], [])
    [
      ("gc-bdw", fun () -> Dh_alloc.Gc.allocator (Dh_alloc.Gc.create (Mem.create ~obs ())));
      ( "freelist-lea",
        fun () -> Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Mem.create ~obs ())) );
      ( "diehard",
        fun () ->
          Diehard.Heap.allocator
            (Diehard.Heap.create ~config:(Diehard.Config.v ~seed:1 ()) (Mem.create ~obs ())) );
    ]

(* --- bulk vs bytewise bandwidth --- *)

(* [setup len] maps [len] bytes and returns one bulk and one bytewise
   pass over them; the bytewise pass runs [byte_reps] times and the bulk
   one 64 times as often.  The speedup is per byte. *)
let comparison ~quick cname setup =
  let len = if quick then 64 * 1024 else 256 * 1024 in
  let byte_reps = if quick then 4 else 8 in
  let bulk_pass, bytewise_pass = setup len in
  let leg kind reps pass =
    let seconds = time (fun () -> for _ = 1 to reps do pass () done) in
    { name = cname ^ "-" ^ kind; ops = reps; bytes = reps * len; seconds }
  in
  let bulk = leg "bulk" (byte_reps * 64) bulk_pass in
  let bytewise = leg "bytewise" byte_reps bytewise_pass in
  rate_metrics bulk ++ rate_metrics bytewise
  ++ ( [ (cname ^ ".bytes_per_op", Gate.int len) ],
       [ (cname ^ ".speedup", Gate.float (mb_per_sec bulk /. mb_per_sec bytewise)) ] )

let fill_bench ~quick =
  comparison ~quick "fill" (fun len ->
      let mem = Mem.create () in
      let a = Mem.mmap mem len in
      ( (fun () -> Mem.fill mem ~addr:a ~len 'Q'),
        fun () ->
          for i = 0 to len - 1 do
            Mem.write8 mem (a + i) 0x51
          done ))

let copy_bench ~quick =
  comparison ~quick "copy" (fun len ->
      let mem = Mem.create () in
      let src = Mem.mmap mem len in
      let dst = Mem.mmap mem len in
      Mem.fill_random mem ~addr:src ~len (Dh_rng.Mwc.create ~seed:7);
      ( (fun () -> Mem.write_bytes mem ~addr:dst (Mem.read_bytes mem ~addr:src ~len)),
        fun () ->
          for i = 0 to len - 1 do
            Mem.write8 mem (dst + i) (Mem.read8 mem (src + i))
          done ))

(* --- GC mark rate --- *)

(* A pointer chain through every object forces the collector to trace the
   whole heap from a single root; marking pulls each payload with one
   bulk read, so this measures the traced bytes per second. *)
let gc_mark_bench ~quick ~obs =
  let n = if quick then 2_000 else 20_000 in
  let objsz = 248 in
  let reps = if quick then 5 else 10 in
  let mem = Mem.create ~obs () in
  let gc = Dh_alloc.Gc.create mem in
  let alloc = Dh_alloc.Gc.allocator gc in
  let objs =
    Array.init n (fun _ ->
        let p = alloc.Allocator.malloc objsz in
        if p = Allocator.null then failwith "gc_mark_bench: malloc failed" else p)
  in
  for i = 0 to n - 2 do
    Mem.write64 mem objs.(i) objs.(i + 1)
  done;
  Dh_alloc.Gc.register_roots gc (fun () -> [ objs.(0) ]);
  let seconds =
    time (fun () ->
        for _ = 1 to reps do
          Dh_alloc.Gc.collect gc
        done)
  in
  Report.keep_trace (Dh_obs.Recorder.events (Mem.recorder mem));
  rate_metrics { name = "gc-mark"; ops = n * reps; bytes = n * objsz * reps; seconds }

(* --- bitmap sweep --- *)

(* Nearly-full bitmap (one clear bit per 64): [iter_clear] must skip the
   seven-eighths of bytes that are 0xFF. *)
let bitmap_bench ~quick =
  let bits = if quick then 1 lsl 18 else 1 lsl 21 in
  let reps = if quick then 20 else 50 in
  let bm = Dh_alloc.Bitmap.create bits in
  for i = 0 to bits - 1 do
    if i land 63 <> 0 then Dh_alloc.Bitmap.set bm i
  done;
  let visited = ref 0 in
  let seconds =
    time (fun () ->
        for _ = 1 to reps do
          Dh_alloc.Bitmap.iter_clear bm (fun _ -> incr visited)
        done)
  in
  rate_metrics { name = "bitmap-sweep"; ops = !visited; bytes = reps * (bits / 8); seconds }

let small_heap = 12 * 64 * 1024

(* --- supervisor ladder --- *)

(* A program that faults deterministically (a wild read of an address
   below the first mapping), so every rung of the supervisor's ladder
   runs: randomized retries, the rescue rung, and the canary diagnosis
   replay.  This is what puts supervisor spans into a `--trace` of this
   bench. *)
let crasher_program =
  Program.make ~name:"bench-crasher" (fun ctx ->
      let a = ctx.Program.alloc in
      let mem = a.Allocator.mem in
      let p = a.Allocator.malloc 64 in
      if p <> Allocator.null then Mem.write64 mem p 42;
      ignore (Mem.read64 mem 0x10))

let supervisor_bench ~quick ~obs =
  let reps = if quick then 2 else 5 in
  let policy =
    { Diehard.Supervisor.default_policy with max_retries = 1; fuel = 100_000 }
  in
  let attempts = ref 0 in
  let seconds =
    time (fun () ->
        for i = 1 to reps do
          let incident =
            Diehard.Supervisor.run ~policy
              ~config:(Diehard.Config.v ~heap_size:small_heap ~seed:i ~obs ())
              crasher_program
          in
          Report.keep_trace incident.events;
          attempts :=
            !attempts + List.length incident.Diehard.Supervisor.attempts
        done)
  in
  rate_metrics { name = "supervisor"; ops = !attempts; bytes = 0; seconds }

(* --- checkpoint / rewind recovery --- *)

(* Two questions, one section.  First: what does dirty-page tracking cost
   on the write path when nobody asked for checkpoints (the always-on
   tax — gated against the committed baseline), and what does it cost
   once a window is armed and every first touch pre-images its page (the
   COW tax)?  Second: on the long Squid-style attack run, is rewinding
   the dirty pages actually cheaper than the classic ladder's
   restart-from-scratch — the whole point of the rung? *)
let checkpoint_write_churn ~quick =
  let pages = if quick then 64 else 256 in
  let reps = if quick then 60 else 200 in
  let len = pages * 4096 in
  let words_per_page = 4096 / 8 in
  let churn mem a =
    (* one 64-bit write per cache line of every page: write-path heavy,
       every page of the working set dirtied each rep *)
    for p = 0 to pages - 1 do
      let page = a + (p * 4096) in
      let w = ref 0 in
      while !w < words_per_page do
        Mem.write64 mem (page + (!w * 8)) !w;
        w := !w + 8
      done
    done
  in
  let leg name ~arm =
    let mem = Mem.create () in
    let a = Mem.mmap mem len in
    let seconds =
      time (fun () ->
          for _ = 1 to reps do
            (* re-arming starts a fresh window: every page is clean
               again, so each rep pays one pre-image copy per page
               touched *)
            if arm then Mem.checkpoint mem;
            churn mem a
          done)
    in
    if arm then Mem.discard_checkpoint mem;
    { name; ops = reps * pages * (words_per_page / 8); bytes = reps * len; seconds }
  in
  let plain = leg "ckpt-write-plain" ~arm:false in
  let armed = leg "ckpt-write-armed" ~arm:true in
  rate_metrics plain ++ rate_metrics armed
  ++ ([], [ ("ckpt.cow_overhead_pct", Gate.float (overhead_pct ~fast:plain ~slow:armed)) ])

(* The recovery comparison's run: the Squid-style server under attack,
   with the rewind rung armed every [interval] requests, or restarting
   each failed attempt from scratch when [interval] is 0.  Both legs
   share the seed pool, so their ladders draw identical per-attempt
   seeds. *)
let recovery_leg ~requests ~obs ~interval =
  Diehard.Supervisor.run
    ~policy:
      {
        Diehard.Supervisor.default_policy with
        max_retries = 8;
        rescue = false;
        diagnose = false;
        fuel = 10_000_000;
        checkpoint_interval = interval;
        max_rewinds = (if interval > 0 then 1_000_000 else 0);
      }
    ~config:(Diehard.Config.v ~heap_size:Dh_workload.Server.heap_size ~seed:3 ~obs ())
    ~seed_pool:(Dh_rng.Seed.create ~master:3)
    (Dh_workload.Server.program ~requests ~attack_every:16 ())

let checkpoint_bench ~quick ~obs =
  let writes = checkpoint_write_churn ~quick in
  let requests = if quick then 2048 else 8192 in
  let rewound = ref None and scratch = ref None in
  let rewind_s = time (fun () -> rewound := Some (recovery_leg ~requests ~interval:64 ~obs)) in
  let scratch_s = time (fun () -> scratch := Some (recovery_leg ~requests ~interval:0 ~obs)) in
  List.iter
    (fun (leg : Diehard.Supervisor.incident option) -> Report.keep_trace (Option.get leg).events)
    [ !rewound; !scratch ];
  let rewinds, pages =
    List.fold_left
      (fun (rw, pg) (a : Diehard.Supervisor.attempt_report) ->
        match a.Diehard.Supervisor.recovery with
        | Some r ->
          (rw + r.Diehard.Supervisor.rewinds, pg + r.Diehard.Supervisor.pages_restored)
        | None -> (rw, pg))
      (0, 0) (Option.get !rewound).Diehard.Supervisor.attempts
  in
  writes
  ++ rate_metrics { name = "recover-rewind"; ops = requests; bytes = 0; seconds = rewind_s }
  ++ rate_metrics { name = "recover-scratch"; ops = requests; bytes = 0; seconds = scratch_s }
  ++ ( [ ("recover.rewinds", Gate.int rewinds); ("recover.pages_restored", Gate.int pages) ],
       (* the rung's reason to exist *)
       [ ("recover.rewind_speedup", Gate.float (scratch_s /. rewind_s)) ] )

(* --- observability overhead --- *)

let obs_heap ~obs = Diehard.Heap.create ~config:(Diehard.Config.v ~seed:1 ()) (Mem.create ~obs ())

(* The work obs does per heap operation, counted from instrument totals
   rather than timed: audit records (a malloc's one record is plain adds
   on the heap's own audit) plus the sampled "heap.malloc"/"heap.free"
   trace instants, per malloc and per free.  Counted on a short run of
   the same churn on a fresh heap on an obs-on space, small enough that
   all of its trace events are still in the space's ring. *)
let obs_records () =
  let heap = obs_heap ~obs:true in
  ignore (alloc_bench ~ops:2_000 "obs-records" (fun () -> Diehard.Heap.allocator heap));
  let allocs, frees =
    Array.fold_left
      (fun (a, f) (c : Dh_obs.Audit.class_stat) -> (a + c.allocs, f + c.frees))
      (0, 0) (Dh_obs.Audit.snapshot [ Diehard.Heap.audit heap ]).Dh_obs.Audit.classes
  in
  let events = Dh_obs.Recorder.events (Mem.recorder (Diehard.Heap.mem heap)) in
  let instants name =
    List.length (List.filter (fun e -> e.Dh_obs.Tracing.name = name) events)
  in
  let stats = Diehard.Heap.stats heap in
  let per n ops = Gate.float (float_of_int n /. float_of_int ops) in
  [
    ("obs.records_per_malloc", per (allocs + instants "heap.malloc") stats.Dh_alloc.Stats.mallocs);
    ("obs.records_per_free", per (frees + instants "heap.free") stats.Dh_alloc.Stats.frees);
  ]

(* Minor-heap words per DieHard malloc and per free, read from
   [Gc.minor_words] (this domain's own count, so exact for a given
   compiler): [n] mallocs of the churn's sizes, then their [n] frees,
   on a heap already warmed by one such pass (the audit's site tables
   grow on first use).  With obs on, a malloc's words include its share
   of the 1-in-64 sampled trace instant, which allocates nothing either:
   both legs read 0. *)
let alloc_words ~obs =
  let alloc = Diehard.Heap.allocator (obs_heap ~obs) in
  let sizes = [| 16; 24; 32; 48; 64; 96; 128; 256 |] in
  let n = 4096 in
  let live = Array.make n 0 in
  let pass () =
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      let p = alloc.Allocator.malloc sizes.(i land 7) in
      if p = Allocator.null then failwith "alloc_words: malloc failed";
      live.(i) <- p
    done;
    let w1 = Gc.minor_words () in
    Array.iter alloc.Allocator.free live;
    let w2 = Gc.minor_words () in
    ((w1 -. w0) /. float_of_int n, (w2 -. w1) /. float_of_int n)
  in
  ignore (pass ());
  let malloc, free = pass () in
  let leg = if obs then "diehard-obs-on" else "diehard-obs-off" in
  [
    (leg ^ ".words_per_malloc", Gate.float malloc);
    (leg ^ ".words_per_free", Gate.float free);
  ]

(* The same diehard alloc churn on an obs-off space and then on an
   obs-on one.  The off leg is the compiled-in fast path (one field load
   and branch per site) whose cost the baseline gate bounds; the on leg
   shows what full tracing + metrics recording costs when you ask for
   it. *)
let obs_overhead_bench ~quick =
  let ops = if quick then 20_000 else 200_000 in
  let make ~obs () = Diehard.Heap.allocator (obs_heap ~obs) in
  let obs_off = alloc_bench ~ops "diehard-obs-off" (make ~obs:false) in
  let obs_on = alloc_bench ~ops "diehard-obs-on" (make ~obs:true) in
  let records = obs_records () in
  let words = alloc_words ~obs:false @ alloc_words ~obs:true in
  rate_metrics obs_off ++ rate_metrics obs_on
  ++ ( records @ words,
       [ ("obs.enabled_overhead_pct", Gate.float (overhead_pct ~fast:obs_off ~slow:obs_on)) ] )

(* --- parallel scaling (Dh_parallel over replicas and campaigns) --- *)

(* The paper runs 16 replicas on a 16-way SMP for roughly one run's
   wall-clock (§6); these benches measure how close the Domains-based
   execution engine gets on this machine. *)

(* A malloc/free churn with data dependencies, heavy enough that one run
   dwarfs a domain spawn.  Output is a deterministic mix of values read
   back from the heap, so replicas agree and divergence is detectable. *)
let churn_program ~ops =
  Program.make ~name:"churn" (fun ctx ->
      let a = ctx.Program.alloc in
      let mem = a.Allocator.mem in
      let live = Array.make 64 0 in
      let h = ref 0x9E3779B9 in
      for i = 0 to ops - 1 do
        let slot = i land 63 in
        if live.(slot) <> 0 then begin
          h := !h lxor Mem.read64 mem live.(slot);
          a.Allocator.free live.(slot);
          live.(slot) <- 0
        end;
        let p = a.Allocator.malloc (16 + ((i land 7) * 24)) in
        if p <> Allocator.null then begin
          Mem.write64 mem p ((i * 0x61C88647) lxor !h);
          live.(slot) <- p
        end
      done;
      Process.Out.printf ctx.Program.out "h=%d" !h)

let scaling_reps = 5

(* Time [run_with ~jobs] at jobs 1, 2, 4 and 8 up to [max_jobs], and
   always at [max_jobs]: seconds, speedup over jobs=1 and per-core
   efficiency at each width.  A width's seconds are the median of
   [scaling_reps] runs, taken in rounds of one run per width (jobs 1,
   2, 1, 2, ...), so a drift in the machine's speed falls on every
   width alike and one slow domain spawn does not decide the speedup.
   [run_with] returns its run's trace events; a traced sweep keeps the
   first round's. *)
let scaling_bench ~sname ~units ~max_jobs ~run_with =
  let cores = Dh_parallel.Pool.default_jobs () in
  let widths =
    Array.of_list
      (List.sort_uniq compare (max_jobs :: List.filter (fun j -> j <= max_jobs) [ 1; 2; 4; 8 ]))
  in
  let samples = Array.map (fun _ -> Array.make scaling_reps 0.) widths in
  for r = 0 to scaling_reps - 1 do
    Array.iteri
      (fun i jobs ->
        let events = ref [] in
        samples.(i).(r) <- time (fun () -> events := run_with ~jobs);
        if r = 0 then Report.keep_trace !events)
      widths
  done;
  let points =
    List.init (Array.length widths) (fun i ->
        Array.sort Float.compare samples.(i);
        (widths.(i), samples.(i).(scaling_reps / 2)))
  in
  let base = snd (List.hd points) in
  ( [ (sname ^ ".units", Gate.int units) ],
    List.concat_map
      (fun (jobs, seconds) ->
        let key = Printf.sprintf "%s.jobs%d.%s" sname jobs in
        let speedup = base /. seconds in
        [
          (key "seconds", Gate.float seconds);
          (key "speedup", Gate.float speedup);
          (* Per-core efficiency on THIS machine: extra domains beyond
             the core count cannot add speedup, so they are not held
             against the engine.  1.0 is perfect scaling. *)
          (key "efficiency", Gate.float (speedup /. float_of_int (max 1 (min jobs cores))));
        ])
      points )

let replicas = 8

(* [replicas] replicas of the churn, [ops] operations each. *)
let replicated_churn ~obs ~ops ~jobs =
  Diehard.Replicated.run
    ~config:(Diehard.Config.v ~heap_size:small_heap ~jobs ~obs ())
    ~replicas
    ~seed_pool:(Dh_rng.Seed.create ~master:0xD1E)
    (churn_program ~ops)

let replicated_scaling ~quick ~obs ~max_jobs =
  let ops = if quick then 4_000 else 30_000 in
  scaling_bench ~sname:"replicated-8way" ~units:replicas ~max_jobs ~run_with:(fun ~jobs ->
      (replicated_churn ~obs ~ops ~jobs).Diehard.Replicated.events)

let campaign_spec =
  { Dh_fault.Injector.paper_dangling with
    Dh_fault.Injector.dangling_rate = 0.5;
    dangling_distance = 8;
    seed = 0xFA57
  }

(* A fault-injection campaign over the churn: [trials] trials of [ops]
   operations, trial [i] on a fresh heap seeded [i + 1]. *)
let campaign ~obs ~spec ~trials ~ops ~jobs =
  Dh_fault.Campaign.run_exn ~jobs ~trials ~spec
    ~make_alloc:(fun ~trial ->
      Diehard.Heap.allocator
        (Diehard.Heap.create
           ~config:(Diehard.Config.v ~heap_size:small_heap ~seed:(trial + 1) ())
           (Mem.create ~obs ())))
    (churn_program ~ops)

let campaign_scaling ~quick ~obs ~max_jobs =
  let trials = if quick then 64 else 1_000 in
  let ops = if quick then 500 else 2_000 in
  scaling_bench ~sname:"campaign" ~units:trials ~max_jobs ~run_with:(fun ~jobs ->
      (campaign ~obs ~spec:campaign_spec ~trials ~ops ~jobs).Dh_fault.Campaign.events)

(* --- report and gate --- *)

let bench = "throughput"

(* The obs budget: switching tracing + metrics on must not slow the
   alloc churn beyond this.  It ratchets down as the instrumentation
   gets cheaper: 64.8% before the cached-cell observes (per-record DLS
   read + hash lookup), ~29% after; 45% leaves noise headroom on loaded
   runners while still catching a regression back to per-record
   lookups. *)
let max_enabled_overhead_pct = 45.0

let sweeps = [ "replicated-8way"; "campaign" ]

(* Timing checks only; see the header for where correctness is
   checked. *)
let checks =
  (* parallelism has to pay for itself: jobs=2 must beat jobs=1 *)
  List.map (fun s -> Gate.above ~skip:Gate.single_core 1.0 (s ^ ".jobs2.speedup")) sweeps
  @ [
      Gate.at_most max_enabled_overhead_pct "obs.enabled_overhead_pct";
      (* the rewind rung must beat restarting *)
      Gate.above 1.0 "recover.rewind_speedup";
    ]
  (* the disabled-obs alloc path and the no-checkpoint write path (dirty
     tracking is always on) against the committed floor *)
  @ List.map
      (fun n -> Gate.rate_holds (n ^ ".ops_per_sec"))
      [ "diehard"; "freelist-lea"; "gc-bdw"; "diehard-obs-off"; "ckpt-write-plain" ]

let measure ~quick () =
  Report.heading "Simulator throughput: allocators, bulk memory, checkpoints, scaling";
  (* Sweep up to the core count, and always to 2: the jobs=2 point is
     the one the scaling check reads. *)
  let max_jobs = max 2 (Dh_parallel.Pool.default_jobs ()) in
  (* A traced run builds its spaces with obs on, so its rates are not
     comparable with an untraced baseline's; each space keeps its own
     trace ring, so no stage's events crowd out another's. *)
  let traced = !Report.traced in
  let legs =
    [
      (fun () -> alloc_benches ~quick ~obs:traced);
      (fun () -> fill_bench ~quick);
      (fun () -> copy_bench ~quick);
      (fun () -> bitmap_bench ~quick);
      (fun () -> obs_overhead_bench ~quick);
      (fun () -> campaign_scaling ~quick ~obs:traced ~max_jobs);
      (fun () -> replicated_scaling ~quick ~obs:traced ~max_jobs);
      (fun () -> checkpoint_bench ~quick ~obs:traced);
      (fun () -> gc_mark_bench ~quick ~obs:traced);
      (fun () -> supervisor_bench ~quick ~obs:traced);
    ]
  in
  let exact, wall = List.fold_left (fun acc leg -> acc ++ leg ()) ([], []) legs in
  let r =
    Gate.v ~bench ~config:[ ("quick", Gate.bool quick); ("traced", Gate.bool traced) ] ~exact ~wall
  in
  Gate.print r;
  r

let gate ~quick () = Gate.run ~bench checks (measure ~quick)
