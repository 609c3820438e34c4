(* Simulator throughput microbenchmark.

   Measures the raw speed of the simulated-memory substrate and the
   allocators built on it -- the numbers the bulk-access fast paths
   (validate a page run once, then blit) are supposed to move:

   - allocation rate (ops/s) under DieHard, the Lea-style freelist, and
     the conservative GC;
   - bulk [Mem.fill] and [Mem.read_bytes]/[write_bytes] bandwidth against
     a bytewise [read8]/[write8] reference, with a differential
     semantics check (same contents, same read/write counts, same
     TLB/cache miss counts, same touched pages on twin heaps);
   - GC mark rate over a pointer chain (bulk payload reads);
   - [Bitmap.iter_clear] sweep rate over a nearly-full bitmap;
   - copy-on-write checkpointing: write-path cost plain vs armed, and
     rewind recovery vs from-scratch retry on the server attack run
     (see DESIGN.md, "Rewind-and-discard recovery");
   - the obs-enabled overhead on the diehard alloc churn;
   - parallel scaling of the {!Dh_parallel} execution engine: an 8-way
     replicated run and a fault-injection campaign, swept over
     [jobs in {1, 2, 4, 8}] up to [max 2 cores], recording wall-clock
     speedup and per-core efficiency, and re-checking at every point
     that the parallel results are identical to the sequential ones.

   `throughput` prints the summary; `throughput-gate` also writes
   BENCH_throughput.json and gates it (see [checks]). *)

module Mem = Dh_mem.Mem
module Allocator = Dh_alloc.Allocator
module Process = Dh_mem.Process
module Program = Dh_alloc.Program

type rate = { name : string; ops : int; bytes : int; seconds : float }

type comparison = {
  cname : string;
  bytes_per_op : int;
  bulk : rate;
  bytewise : rate;
  speedup : float;  (* bytewise seconds / bulk seconds, per byte *)
  semantics_match : bool;
      (* twin-heap differential: contents, read/write counts, TLB and
         cache misses, and touched pages all identical between one bulk
         operation and the equivalent bytewise loop *)
}

type scaling_point = {
  sp_jobs : int;
  sp_seconds : float;
  sp_speedup : float;  (* jobs=1 seconds / this point's seconds *)
  sp_efficiency : float;
      (* speedup per core actually usable at this width,
         [speedup / min jobs cores]: 1.0 is perfect scaling *)
}

type scaling = {
  sname : string;
  units : int;  (* replicas or trials fanned out *)
  points : scaling_point list;  (* in increasing-jobs order *)
  deterministic : bool;
      (* every parallel point reproduced the sequential results exactly
         (verdict, output, roster for replication; the full tally
         including the per-trial list for campaigns) *)
}

type obs_overhead = {
  obs_off : rate;
      (* the diehard alloc churn with observability disabled: the
         compiled-in fast path, one atomic load and branch per site *)
  obs_on : rate;  (* the same churn with tracing + metrics enabled *)
  enabled_overhead_pct : float;  (* slowdown of on vs off, percent *)
}

type checkpoint_bench = {
  ck_plain : rate;
      (* page-write churn with no checkpoint armed: the always-on
         dirty-tracking tax on the write path *)
  ck_armed : rate;  (* the same churn inside copy-on-write windows *)
  ck_cow_overhead_pct : float;  (* slowdown of armed vs plain, percent *)
  ck_rewind : rate;  (* server attack run recovered by the rewind rung *)
  ck_scratch : rate;  (* the same run recovered by from-scratch retries *)
  ck_rewind_speedup : float;
      (* scratch seconds / rewind seconds: the rung's reason to exist *)
  ck_rewinds : int;  (* faults survived by rewind across the run *)
  ck_pages_restored : int;  (* pages blitted back across all rewinds *)
  ck_fingerprint_match : bool;
      (* both legs survived and printed byte-identical output: rewind
         recovery must not show through in program results *)
}

type report = {
  quick : bool;
  traced : bool;
  cores : int;
  alloc : rate list;
  fill : comparison;
  copy : comparison;
  gc_mark : rate;
  bitmap_sweep : rate;
  supervisor : rate;
  checkpoint : checkpoint_bench;
  obs : obs_overhead;
  scaling : scaling list;
}

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  max 1e-9 (Unix.gettimeofday () -. t0)

let ops_per_sec r = float_of_int r.ops /. r.seconds
let mb_per_sec r = float_of_int r.bytes /. (1024. *. 1024.) /. r.seconds

(* --- allocation rate --- *)

(* A malloc/free churn with a bounded live set: the slot table recycles,
   so every allocator reaches its steady state (bins for the freelist,
   bitmap probing for DieHard, collections for the GC). *)
let alloc_bench ~ops name make =
  let alloc = make () in
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
          (match malloc sizes.(i land 7) with
          | Some p -> live.(slot) <- p
          | None -> ());
          incr performed
        done)
  in
  { name; ops = !performed; bytes = 0; seconds }

let alloc_benches ~quick =
  let ops = if quick then 20_000 else 200_000 in
  [
    alloc_bench ~ops "diehard" (fun () ->
        let mem = Mem.create () in
        Diehard.Heap.allocator
          (Diehard.Heap.create ~config:(Diehard.Config.v ~seed:1 ()) mem));
    alloc_bench ~ops "freelist-lea" (fun () ->
        Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Mem.create ())));
    alloc_bench ~ops "gc-bdw" (fun () ->
        Dh_alloc.Gc.allocator (Dh_alloc.Gc.create (Mem.create ())));
  ]

(* --- bulk vs bytewise bandwidth --- *)

(* Twin-heap differential: run the bulk operation on one heap and the
   bytewise loop on an identically-laid-out heap, then require identical
   contents, read/write counts, TLB and cache misses, and touched pages.
   This is the acceptance test for the charging rule: miss accounting
   depends only on the pages and lines an access spans, not on the code
   path that performs it. *)
let stats_delta (a : Mem.stats) (b : Mem.stats) =
  Mem.(b.reads - a.reads, b.writes - a.writes,
       b.tlb_misses - a.tlb_misses, b.cache_misses - a.cache_misses)

let fill_semantics ~len =
  let m1 = Mem.create () and m2 = Mem.create () in
  let a1 = Mem.mmap m1 len and a2 = Mem.mmap m2 len in
  let s1 = Mem.stats m1 and s2 = Mem.stats m2 in
  Mem.fill m1 ~addr:a1 ~len 'Q';
  for i = 0 to len - 1 do
    Mem.write8 m2 (a2 + i) (Char.code 'Q')
  done;
  let d1 = stats_delta s1 (Mem.stats m1) and d2 = stats_delta s2 (Mem.stats m2) in
  d1 = d2
  && Mem.touched_pages m1 = Mem.touched_pages m2
  && Mem.read_bytes m1 ~addr:a1 ~len = Mem.read_bytes m2 ~addr:a2 ~len

let fill_bench ~quick =
  let len = if quick then 64 * 1024 else 256 * 1024 in
  let byte_reps = if quick then 4 else 8 in
  let bulk_reps = byte_reps * 64 in
  let mem = Mem.create () in
  let a = Mem.mmap mem len in
  let bulk_s =
    time (fun () ->
        for _ = 1 to bulk_reps do
          Mem.fill mem ~addr:a ~len 'Q'
        done)
  in
  let byte_s =
    time (fun () ->
        for _ = 1 to byte_reps do
          for i = 0 to len - 1 do
            Mem.write8 mem (a + i) 0x51
          done
        done)
  in
  let bulk = { name = "fill-bulk"; ops = bulk_reps; bytes = bulk_reps * len; seconds = bulk_s } in
  let bytewise =
    { name = "fill-bytewise"; ops = byte_reps; bytes = byte_reps * len; seconds = byte_s }
  in
  {
    cname = "fill";
    bytes_per_op = len;
    bulk;
    bytewise;
    speedup = mb_per_sec bulk /. mb_per_sec bytewise;
    semantics_match = fill_semantics ~len;
  }

let copy_semantics ~len =
  let m1 = Mem.create () and m2 = Mem.create () in
  let src1 = Mem.mmap m1 len and src2 = Mem.mmap m2 len in
  let dst1 = Mem.mmap m1 len and dst2 = Mem.mmap m2 len in
  Mem.fill_random m1 ~addr:src1 ~len (Dh_rng.Mwc.create ~seed:7);
  Mem.fill_random m2 ~addr:src2 ~len (Dh_rng.Mwc.create ~seed:7);
  let s1 = Mem.stats m1 and s2 = Mem.stats m2 in
  Mem.write_bytes m1 ~addr:dst1 (Mem.read_bytes m1 ~addr:src1 ~len);
  (* The bytewise reference mirrors the bulk pair operation for operation:
     one whole-range read, then one whole-range write.  (A per-byte
     interleaved memcpy is a different access sequence and may observe
     different cache misses once the range exceeds cache capacity.) *)
  let tmp = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set tmp i (Char.chr (Mem.read8 m2 (src2 + i)))
  done;
  for i = 0 to len - 1 do
    Mem.write8 m2 (dst2 + i) (Char.code (Bytes.get tmp i))
  done;
  let d1 = stats_delta s1 (Mem.stats m1) and d2 = stats_delta s2 (Mem.stats m2) in
  d1 = d2
  && Mem.touched_pages m1 = Mem.touched_pages m2
  && Mem.read_bytes m1 ~addr:dst1 ~len = Mem.read_bytes m2 ~addr:dst2 ~len

let copy_bench ~quick =
  let len = if quick then 64 * 1024 else 256 * 1024 in
  let byte_reps = if quick then 4 else 8 in
  let bulk_reps = byte_reps * 64 in
  let mem = Mem.create () in
  let src = Mem.mmap mem len in
  let dst = Mem.mmap mem len in
  Mem.fill_random mem ~addr:src ~len (Dh_rng.Mwc.create ~seed:7);
  let bulk_s =
    time (fun () ->
        for _ = 1 to bulk_reps do
          Mem.write_bytes mem ~addr:dst (Mem.read_bytes mem ~addr:src ~len)
        done)
  in
  let byte_s =
    time (fun () ->
        for _ = 1 to byte_reps do
          for i = 0 to len - 1 do
            Mem.write8 mem (dst + i) (Mem.read8 mem (src + i))
          done
        done)
  in
  let bulk = { name = "copy-bulk"; ops = bulk_reps; bytes = bulk_reps * len; seconds = bulk_s } in
  let bytewise =
    { name = "copy-bytewise"; ops = byte_reps; bytes = byte_reps * len; seconds = byte_s }
  in
  {
    cname = "copy";
    bytes_per_op = len;
    bulk;
    bytewise;
    speedup = mb_per_sec bulk /. mb_per_sec bytewise;
    semantics_match = copy_semantics ~len;
  }

(* --- GC mark rate --- *)

(* A pointer chain through every object forces the collector to trace the
   whole heap from a single root; marking pulls each payload with one
   bulk read, so this measures the traced bytes per second. *)
let gc_mark_bench ~quick =
  let n = if quick then 2_000 else 20_000 in
  let objsz = 248 in
  let reps = if quick then 5 else 10 in
  let mem = Mem.create () in
  let gc = Dh_alloc.Gc.create mem in
  let alloc = Dh_alloc.Gc.allocator gc in
  let objs =
    Array.init n (fun _ ->
        match alloc.Allocator.malloc objsz with
        | Some p -> p
        | None -> failwith "gc_mark_bench: malloc failed")
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
  { name = "gc-mark"; ops = n * reps; bytes = n * objsz * reps; seconds }

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
  { name = "bitmap-sweep"; ops = !visited; bytes = reps * (bits / 8); seconds }

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
      (match a.Allocator.malloc 64 with
      | Some p -> Mem.write64 mem p 42
      | None -> ());
      ignore (Mem.read64 mem 0x10))

let supervisor_bench ~quick =
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
              ~config:(Diehard.Config.v ~heap_size:small_heap ~seed:i ())
              crasher_program
          in
          attempts :=
            !attempts + List.length incident.Diehard.Supervisor.attempts
        done)
  in
  { name = "supervisor"; ops = !attempts; bytes = 0; seconds }

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
  let ops_per_rep = pages * (words_per_page / 8) in
  let plain_mem = Mem.create () in
  let plain_a = Mem.mmap plain_mem len in
  let plain_s =
    time (fun () ->
        for _ = 1 to reps do
          churn plain_mem plain_a
        done)
  in
  let armed_mem = Mem.create () in
  let armed_a = Mem.mmap armed_mem len in
  let armed_s =
    time (fun () ->
        for _ = 1 to reps do
          (* re-arming starts a fresh window: every page is clean again,
             so each rep pays one pre-image copy per page touched *)
          Mem.checkpoint armed_mem;
          churn armed_mem armed_a
        done)
  in
  Mem.discard_checkpoint armed_mem;
  let plain =
    { name = "ckpt-write-plain"; ops = reps * ops_per_rep; bytes = reps * len; seconds = plain_s }
  in
  let armed =
    { name = "ckpt-write-armed"; ops = reps * ops_per_rep; bytes = reps * len; seconds = armed_s }
  in
  (plain, armed)

let checkpoint_bench ~quick =
  let plain, armed = checkpoint_write_churn ~quick in
  (* The recovery comparison: the same server-under-attack run (same
     seed pool, so the ladders draw identical per-attempt seeds), once
     with the rewind rung armed and once restarting each failed attempt
     from scratch.  Both must survive and print the same fingerprint —
     the run's output is placement-independent, so recovery strategy
     must not show through. *)
  let requests = if quick then 2048 else 8192 in
  let base_policy =
    {
      Diehard.Supervisor.default_policy with
      max_retries = 8;
      rescue = false;
      diagnose = false;
      fuel = 10_000_000;
    }
  in
  let run_leg ~interval =
    let incident = ref None in
    let seconds =
      time (fun () ->
          incident :=
            Some
              (Diehard.Supervisor.run
                 ~policy:
                   {
                     base_policy with
                     checkpoint_interval = interval;
                     max_rewinds = (if interval > 0 then 1_000_000 else 0);
                   }
                 ~config:
                   (Diehard.Config.v ~heap_size:Dh_workload.Server.heap_size
                      ~seed:3 ())
                 ~seed_pool:(Dh_rng.Seed.create ~master:3)
                 (Dh_workload.Server.program ~requests ~attack_every:16 ())))
    in
    (Option.get !incident, seconds)
  in
  let rewind_i, rewind_s = run_leg ~interval:64 in
  let scratch_i, scratch_s = run_leg ~interval:0 in
  let survived i =
    match i.Diehard.Supervisor.verdict with
    | Diehard.Supervisor.Survived _ -> true
    | Diehard.Supervisor.Gave_up -> false
  in
  let rewinds, pages =
    List.fold_left
      (fun (rw, pg) (a : Diehard.Supervisor.attempt_report) ->
        match a.Diehard.Supervisor.recovery with
        | Some r ->
          (rw + r.Diehard.Supervisor.rewinds, pg + r.Diehard.Supervisor.pages_restored)
        | None -> (rw, pg))
      (0, 0) rewind_i.Diehard.Supervisor.attempts
  in
  {
    ck_plain = plain;
    ck_armed = armed;
    ck_cow_overhead_pct = ((ops_per_sec plain /. ops_per_sec armed) -. 1.) *. 100.;
    ck_rewind = { name = "recover-rewind"; ops = requests; bytes = 0; seconds = rewind_s };
    ck_scratch = { name = "recover-scratch"; ops = requests; bytes = 0; seconds = scratch_s };
    ck_rewind_speedup = scratch_s /. rewind_s;
    ck_rewinds = rewinds;
    ck_pages_restored = pages;
    ck_fingerprint_match =
      survived rewind_i && survived scratch_i
      && rewind_i.Diehard.Supervisor.output = scratch_i.Diehard.Supervisor.output;
  }

(* --- observability overhead --- *)

(* The same diehard alloc churn with Dh_obs off and then on.  The off
   leg is the compiled-in fast path (one atomic load and branch per
   site) whose cost the baseline gate bounds; the on leg shows what
   full tracing + metrics recording costs when you ask for it. *)
let obs_overhead_bench ~quick =
  let ops = if quick then 20_000 else 200_000 in
  let make () =
    let mem = Mem.create () in
    Diehard.Heap.allocator
      (Diehard.Heap.create ~config:(Diehard.Config.v ~seed:1 ()) mem)
  in
  let was = Dh_obs.Control.enabled () in
  Dh_obs.Control.set_enabled false;
  let obs_off = alloc_bench ~ops "diehard-obs-off" make in
  Dh_obs.Control.set_enabled true;
  let obs_on = alloc_bench ~ops "diehard-obs-on" make in
  Dh_obs.Control.set_enabled was;
  {
    obs_off;
    obs_on;
    enabled_overhead_pct = ((ops_per_sec obs_off /. ops_per_sec obs_on) -. 1.) *. 100.;
  }

(* --- parallel scaling (Dh_parallel over replicas and campaigns) --- *)

(* The paper runs 16 replicas on a 16-way SMP for roughly one run's
   wall-clock (§6); these benches measure how close the Domains-based
   execution engine gets on this machine.  Every point re-checks the
   determinism contract: the parallel run's results must equal the
   jobs=1 run's bit for bit, or the whole bench fails. *)

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
        match a.Allocator.malloc (16 + ((i land 7) * 24)) with
        | Some p ->
          Mem.write64 mem p ((i * 0x61C88647) lxor !h);
          live.(slot) <- p
        | None -> ()
      done;
      Process.Out.printf ctx.Program.out "h=%d" !h)

let jobs_sweep ~max_jobs =
  List.sort_uniq compare (max_jobs :: List.filter (fun j -> j <= max_jobs) [ 1; 2; 4; 8 ])

(* Time [run_with ~jobs] across the sweep; [fingerprint] of every
   parallel run must equal the sequential one's. *)
let scaling_bench ~sname ~units ~max_jobs ~run_with ~fingerprint =
  let cores = Dh_parallel.Pool.default_jobs () in
  let reference = ref None in
  let deterministic = ref true in
  let points =
    List.map
      (fun jobs ->
        (* Each point starts from a quiesced pool: workers parked by an
           earlier width are stop-the-world participants, so leaving them
           around would tax the jobs=1 leg's every minor collection and
           corrupt the speedup baseline.  The parallel legs respawn
           inside the timed window — the one-time spawn is part of what
           that width honestly costs. *)
        Dh_parallel.Pool.quiesce ();
        let result = ref None in
        let seconds = time (fun () -> result := Some (run_with ~jobs)) in
        let fp = fingerprint (Option.get !result) in
        (match !reference with
        | None -> reference := Some fp
        | Some r -> if fp <> r then deterministic := false);
        (jobs, seconds))
      (jobs_sweep ~max_jobs)
  in
  let base =
    match points with (1, s) :: _ -> s | _ -> snd (List.hd points)
  in
  {
    sname;
    units;
    deterministic = !deterministic;
    points =
      List.map
        (fun (jobs, seconds) ->
          let speedup = base /. seconds in
          {
            sp_jobs = jobs;
            sp_seconds = seconds;
            sp_speedup = speedup;
            (* Per-core efficiency on THIS machine: extra domains beyond
               the core count cannot add speedup, so they are not held
               against the engine. *)
            sp_efficiency = speedup /. float_of_int (max 1 (min jobs cores));
          })
        points;
  }

let replicated_scaling ~quick ~max_jobs =
  let replicas = 8 in
  let program = churn_program ~ops:(if quick then 4_000 else 30_000) in
  let run_with ~jobs =
    Diehard.Replicated.run
      ~config:(Diehard.Config.v ~heap_size:small_heap ~jobs ())
      ~replicas
      ~seed_pool:(Dh_rng.Seed.create ~master:0xD1E)
      program
  in
  scaling_bench ~sname:"replicated-8way" ~units:replicas ~max_jobs ~run_with
    ~fingerprint:(fun (r : Diehard.Replicated.report) ->
      ( r.Diehard.Replicated.verdict,
        r.Diehard.Replicated.output,
        r.Diehard.Replicated.barriers,
        List.map
          (fun (rep : Diehard.Replicated.replica_report) ->
            ( rep.Diehard.Replicated.id,
              rep.Diehard.Replicated.seed,
              Process.outcome_to_string rep.Diehard.Replicated.outcome,
              rep.Diehard.Replicated.eliminated ))
          r.Diehard.Replicated.replicas ))

let campaign_scaling ~quick ~max_jobs =
  let trials = if quick then 64 else 1_000 in
  let program = churn_program ~ops:(if quick then 500 else 2_000) in
  let spec =
    { Dh_fault.Injector.paper_dangling with
      Dh_fault.Injector.dangling_rate = 0.5;
      dangling_distance = 8;
      seed = 0xFA57
    }
  in
  let make_alloc ~trial =
    let mem = Mem.create () in
    Diehard.Heap.allocator
      (Diehard.Heap.create
         ~config:(Diehard.Config.v ~heap_size:small_heap ~seed:(trial + 1) ())
         mem)
  in
  let run_with ~jobs =
    Dh_fault.Campaign.run_exn ~jobs ~trials ~spec ~make_alloc program
  in
  scaling_bench ~sname:"campaign" ~units:trials ~max_jobs ~run_with
    ~fingerprint:(fun (t : Dh_fault.Campaign.tally) -> t)

(* --- driver --- *)

let run ~quick =
  let cores = Dh_parallel.Pool.default_jobs () in
  (* Sweep up to the core count, and always to 2: the jobs=2 point is
     the one the scaling check reads. *)
  let max_jobs = max 2 cores in
  (* Captured before the obs stage toggles the switch: a traced run's
     rates are not comparable with an untraced baseline's. *)
  let traced = Dh_obs.Control.enabled () in
  (* Stage order is load-bearing when tracing is on: the per-domain
     trace rings overwrite their oldest events, and the churn-heavy
     stages (alloc, scaling) flood them.  Running the low-volume span
     stages (GC, supervisor) last keeps their spans in the retained
     window, so a `--trace` of this bench always covers heap, GC,
     supervisor, and pool events. *)
  let alloc = alloc_benches ~quick in
  let fill = fill_bench ~quick in
  let copy = copy_bench ~quick in
  let bitmap_sweep = bitmap_bench ~quick in
  let obs = obs_overhead_bench ~quick in
  let scaling =
    [ replicated_scaling ~quick ~max_jobs; campaign_scaling ~quick ~max_jobs ]
  in
  (* Everything after the scaling sweep is sequential; retire the parked
     workers so the remaining stages (and their timings) do not pay the
     idle domains' stop-the-world barrier on every minor collection. *)
  Dh_parallel.Pool.quiesce ();
  (* the checkpoint stage's server runs are heap-churn-heavy, so it
     belongs with the flooders, before the low-volume span stages *)
  let checkpoint = checkpoint_bench ~quick in
  let gc_mark = gc_mark_bench ~quick in
  let supervisor = supervisor_bench ~quick in
  {
    quick;
    traced;
    cores;
    alloc;
    fill;
    copy;
    gc_mark;
    bitmap_sweep;
    supervisor;
    checkpoint;
    obs;
    scaling;
  }

let print r =
  Printf.printf "throughput (%s, %d core%s)\n"
    (if r.quick then "quick" else "full")
    r.cores
    (if r.cores = 1 then "" else "s");
  List.iter
    (fun rate ->
      Printf.printf "  alloc %-14s %10.0f ops/s\n" rate.name (ops_per_sec rate))
    r.alloc;
  let pc c =
    Printf.printf
      "  %-4s bulk %8.1f MB/s  bytewise %7.1f MB/s  speedup %6.1fx  semantics %s\n"
      c.cname (mb_per_sec c.bulk) (mb_per_sec c.bytewise) c.speedup
      (if c.semantics_match then "match" else "MISMATCH")
  in
  pc r.fill;
  pc r.copy;
  Printf.printf "  gc-mark %14.1f MB/s\n" (mb_per_sec r.gc_mark);
  Printf.printf "  bitmap-sweep %9.0f Mbit/s scanned\n"
    (float_of_int r.bitmap_sweep.bytes *. 8. /. 1e6 /. r.bitmap_sweep.seconds);
  Printf.printf "  supervisor %8d ladder attempts in %.3f s\n" r.supervisor.ops
    r.supervisor.seconds;
  Printf.printf
    "  ckpt writes: plain %9.0f ops/s  armed %9.0f ops/s  COW costs %+.1f%%\n"
    (ops_per_sec r.checkpoint.ck_plain)
    (ops_per_sec r.checkpoint.ck_armed)
    r.checkpoint.ck_cow_overhead_pct;
  Printf.printf
    "  recovery: rewind %.3f s  scratch %.3f s  speedup %.2fx  (%d rewinds, %d \
     pages restored)  fingerprint %s\n"
    r.checkpoint.ck_rewind.seconds r.checkpoint.ck_scratch.seconds
    r.checkpoint.ck_rewind_speedup r.checkpoint.ck_rewinds
    r.checkpoint.ck_pages_restored
    (if r.checkpoint.ck_fingerprint_match then "match" else "MISMATCH");
  Printf.printf
    "  obs overhead: off %10.0f ops/s  on %10.0f ops/s  enabled costs %+.1f%%\n"
    (ops_per_sec r.obs.obs_off) (ops_per_sec r.obs.obs_on)
    r.obs.enabled_overhead_pct;
  List.iter
    (fun s ->
      Printf.printf "  scaling %-16s (%d units, %d cores) %s\n" s.sname s.units
        r.cores
        (if s.deterministic then "deterministic"
         else "NONDETERMINISTIC (parallel != sequential)");
      List.iter
        (fun p ->
          Printf.printf
            "    jobs %2d  %8.3f s  speedup %5.2fx  efficiency %5.2f\n" p.sp_jobs
            p.sp_seconds p.sp_speedup p.sp_efficiency)
        s.points)
    r.scaling

(* --- report and gate --- *)

let bench = "throughput"

let to_report r =
  let ck = r.checkpoint in
  let rates =
    r.alloc
    @ [
        r.fill.bulk; r.fill.bytewise; r.copy.bulk; r.copy.bytewise; r.gc_mark;
        r.bitmap_sweep; r.supervisor; ck.ck_plain; ck.ck_armed; ck.ck_rewind;
        ck.ck_scratch; r.obs.obs_off; r.obs.obs_on;
      ]
  in
  (* byte counts and bandwidths only for the rates that move bytes *)
  let rate_exact x =
    (x.name ^ ".ops", Gate.int x.ops)
    :: (if x.bytes > 0 then [ (x.name ^ ".bytes", Gate.int x.bytes) ] else [])
  in
  let rate_wall x =
    [
      (x.name ^ ".seconds", Gate.float x.seconds);
      (x.name ^ ".ops_per_sec", Gate.float (ops_per_sec x));
    ]
    @ if x.bytes > 0 then [ (x.name ^ ".mb_per_sec", Gate.float (mb_per_sec x)) ] else []
  in
  let comparisons = [ r.fill; r.copy ] in
  Gate.v ~bench
    ~config:[ ("quick", Gate.bool r.quick); ("traced", Gate.bool r.traced) ]
    ~exact:
      (List.concat_map rate_exact rates
      @ List.concat_map
          (fun c ->
            [
              (c.cname ^ ".bytes_per_op", Gate.int c.bytes_per_op);
              (c.cname ^ ".semantics_match", Gate.bool c.semantics_match);
            ])
          comparisons
      @ [
          ("recover.rewinds", Gate.int ck.ck_rewinds);
          ("recover.pages_restored", Gate.int ck.ck_pages_restored);
          ("recover.fingerprint_match", Gate.bool ck.ck_fingerprint_match);
        ]
      @ List.concat_map
          (fun s ->
            [
              (s.sname ^ ".units", Gate.int s.units);
              (s.sname ^ ".deterministic", Gate.bool s.deterministic);
            ])
          r.scaling)
    ~wall:
      (List.concat_map rate_wall rates
      @ List.map (fun c -> (c.cname ^ ".speedup", Gate.float c.speedup)) comparisons
      @ [
          ("ckpt.cow_overhead_pct", Gate.float ck.ck_cow_overhead_pct);
          ("recover.rewind_speedup", Gate.float ck.ck_rewind_speedup);
          ("obs.enabled_overhead_pct", Gate.float r.obs.enabled_overhead_pct);
        ]
      @ List.concat_map
          (fun s ->
            List.concat_map
              (fun p ->
                let key = Printf.sprintf "%s.jobs%d.%s" s.sname p.sp_jobs in
                [
                  (key "seconds", Gate.float p.sp_seconds);
                  (key "speedup", Gate.float p.sp_speedup);
                  (key "efficiency", Gate.float p.sp_efficiency);
                ])
              s.points)
          r.scaling)

(* The obs budget: switching tracing + metrics on must not slow the
   alloc churn beyond this.  It ratchets down as the instrumentation
   gets cheaper: 64.8% before the cached-cell observes (per-record DLS
   read + hash lookup), ~29% after; 45% leaves noise headroom on loaded
   runners while still catching a regression back to per-record
   lookups. *)
let max_enabled_overhead_pct = 45.0

let sweeps = [ "replicated-8way"; "campaign" ]

let checks =
  [ Gate.holds "fill.semantics_match"; Gate.holds "copy.semantics_match" ]
  @ List.map (fun s -> Gate.holds (s ^ ".deterministic")) sweeps
  (* parallelism has to pay for itself: jobs=2 must beat jobs=1 *)
  @ List.map (fun s -> Gate.above ~skip:Gate.single_core 1.0 (s ^ ".jobs2.speedup")) sweeps
  @ [
      Gate.at_most max_enabled_overhead_pct "obs.enabled_overhead_pct";
      (* the rewind rung must beat restarting, and must not show in the
         program's output *)
      Gate.holds "recover.fingerprint_match";
      Gate.above 1.0 "recover.rewind_speedup";
    ]
  (* the disabled-obs alloc path and the no-checkpoint write path (dirty
     tracking is always on) against the committed floor *)
  @ List.map
      (fun n -> Gate.rate_holds (n ^ ".ops_per_sec"))
      [ "diehard"; "freelist-lea"; "gc-bdw"; "diehard-obs-off"; "ckpt-write-plain" ]

let measure ~quick () =
  Report.heading "Simulator throughput: allocators, bulk memory, checkpoints, scaling";
  let r = run ~quick in
  print r;
  to_report r

let gate ~quick () = Gate.run ~bench checks (measure ~quick)
