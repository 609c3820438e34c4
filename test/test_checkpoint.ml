(* Tests for copy-on-write checkpoints and rewind-and-discard recovery:
   simmem dirty tracking and mapping deltas, heap metadata
   snapshot/restore, and the supervisor's rewind rung end to end. *)

module Mem = Dh_mem.Mem
module Fault = Dh_mem.Fault
module Supervisor = Diehard.Supervisor
module Seed = Dh_rng.Seed

(* DieHard's malloc and free, through the allocator record the system
   calls. *)
let heap_malloc h = (Diehard.Heap.allocator h).Dh_alloc.Allocator.malloc
let heap_free h = (Diehard.Heap.allocator h).Dh_alloc.Allocator.free

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let page = Mem.page_size

let faults f =
  match f () with
  | _ -> false
  | exception Fault.Error _ -> true

(* --- the undo log itself --- *)

let test_cow_roundtrip () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (4 * page) in
  Mem.fill mem ~addr:a ~len:(4 * page) 'x';
  let before = Mem.read_bytes mem ~addr:a ~len:(4 * page) in
  Mem.checkpoint mem;
  check_int "clean after arming" 0 (Mem.dirty_pages mem);
  Mem.fill mem ~addr:(a + page) ~len:page 'y';
  Mem.write8 mem (a + (3 * page) + 17) 0x5A;
  check_int "two pages dirty" 2 (Mem.dirty_pages mem);
  check_int "two pages pre-imaged" 2 (Mem.preimaged_pages mem);
  let r = Mem.rewind mem in
  check_int "restored exactly the dirty set" 2 r.Mem.pages_restored;
  check_int "no mapping deltas" 0 (r.Mem.segments_remapped + r.Mem.segments_discarded);
  check "contents back" true (Mem.read_bytes mem ~addr:a ~len:(4 * page) = before);
  check_int "clean again" 0 (Mem.dirty_pages mem);
  let preimaged = Mem.preimaged_pages mem in
  Mem.write8 mem a 0;
  check "still armed after rewind: a write pre-images" true
    (Mem.preimaged_pages mem = preimaged + 1)

let test_rewind_spans_munmap () =
  (* A checkpoint window that unmaps a pre-existing segment and maps a
     new one: rewind must bring the old segment back (contents intact)
     and discard the newborn. *)
  let mem = Mem.create () in
  let a = Mem.mmap mem (2 * page) in
  let b = Mem.mmap mem page in
  Mem.fill mem ~addr:b ~len:page 'B';
  Mem.checkpoint mem;
  Mem.write8 mem a 1;
  Mem.munmap mem b;
  let c = Mem.mmap mem page in
  Mem.fill mem ~addr:c ~len:page 'C';
  check "b gone before rewind" false (Mem.is_mapped mem b);
  let r = Mem.rewind mem in
  check_int "old segment re-inserted" 1 r.Mem.segments_remapped;
  check_int "newborn discarded" 1 r.Mem.segments_discarded;
  check "b mapped again" true (Mem.is_mapped mem b);
  check "b contents survived its own unmapping" true
    (Mem.read_bytes mem ~addr:b ~len:page = String.make page 'B');
  check "c unmapped" false (Mem.is_mapped mem c);
  check "a restored" true (Mem.read8 mem a = 0);
  (* the base allocator rewound too: re-mapping draws the same address *)
  check_int "next mmap reuses the rewound base" c (Mem.mmap mem page)

let test_rewind_across_protect () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (2 * page) in
  Mem.checkpoint mem;
  Mem.protect mem ~addr:(a + page) ~len:page Mem.Read_only;
  check "write faults under the new protection" true (faults (fun () ->
      Mem.write8 mem (a + page) 1));
  let r = Mem.rewind mem in
  check "protection change undone" true (r.Mem.protections_restored >= 1);
  Mem.write8 mem (a + page) 7;
  check "writable again" true (Mem.read8 mem (a + page) = 7);
  (* and the mirror image: a protection set before the checkpoint is
     what rewind restores to, not Read_write *)
  Mem.protect mem ~addr:a ~len:page Mem.Read_only;
  Mem.checkpoint mem;
  Mem.protect mem ~addr:a ~len:page Mem.Read_write;
  Mem.write8 mem a 9;
  ignore (Mem.rewind mem);
  check "pre-checkpoint Read_only is back" true (faults (fun () -> Mem.write8 mem a 1))

let test_fault_at_page_edges () =
  (* Dirty the first and last byte of a segment's final page, then fault
     a bulk write straddling the segment end: exact-fault semantics mean
     nothing tears, and rewind restores the page bit-for-bit. *)
  let mem = Mem.create () in
  let a = Mem.mmap mem page in
  Mem.fill mem ~addr:a ~len:page 'x';
  let before = Mem.read_bytes mem ~addr:a ~len:page in
  Mem.checkpoint mem;
  Mem.write8 mem a 0x41;
  Mem.write8 mem (a + page - 1) 0x42;
  check_int "first and last byte share one dirty page" 1 (Mem.dirty_pages mem);
  (match Mem.write_bytes mem ~addr:(a + page - 5) "0123456789" with
  | () -> Alcotest.fail "straddling write did not fault"
  | exception Fault.Error (Fault.Unmapped { addr; _ }) ->
    check_int "fault names the first unmapped byte" (a + page) addr
  | exception Fault.Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f));
  check "no tearing: in-range prefix untouched" true
    (Mem.read_bytes mem ~addr:(a + page - 5) ~len:5 = String.sub before (page - 5) 4 ^ "\x42");
  let r = Mem.rewind mem in
  check_int "one page restored" 1 r.Mem.pages_restored;
  check "page bit-for-bit back" true (Mem.read_bytes mem ~addr:a ~len:page = before)

let test_double_rewind () =
  (* The checkpoint survives its own rewind: fault, rewind, fault again,
     rewind again — both land on the same state. *)
  let mem = Mem.create () in
  let a = Mem.mmap mem (2 * page) in
  Mem.fill mem ~addr:a ~len:(2 * page) 'o';
  let before = Mem.read_bytes mem ~addr:a ~len:(2 * page) in
  Mem.checkpoint mem;
  Mem.fill mem ~addr:a ~len:(2 * page) '1';
  ignore (Mem.rewind mem);
  Mem.fill mem ~addr:a ~len:page '2';
  let b = Mem.mmap mem page in
  let r = Mem.rewind mem in
  check_int "second rewind restores the second window's dirt" 1 r.Mem.pages_restored;
  check "second window's mapping undone" false (Mem.is_mapped mem b);
  check "same state both times" true (Mem.read_bytes mem ~addr:a ~len:(2 * page) = before)

let test_discard_stops_preimaging () =
  let mem = Mem.create () in
  let a = Mem.mmap mem page in
  Mem.checkpoint mem;
  Mem.write8 mem a 1;
  check_int "armed write pre-images" 1 (Mem.preimaged_pages mem);
  Mem.discard_checkpoint mem;
  Mem.write8 mem a 2;
  check_int "disarmed writes do not" 1 (Mem.preimaged_pages mem);
  check "dirty still tracked" true (Mem.dirty_pages mem >= 1)

(* Many windows over the same pages, each closed by a commit (the next
   arm), a discard, a rewind, or a rewind followed by more writes and a
   second rewind.  Closed windows hand their pre-image buffers to later
   ones, so this checks that a recycled buffer is never one the live
   undo log still holds: after every rewind memory equals the arm-time
   copy bit for bit, the flight recorder's dirty-page delta counts the
   bytes that really differ, and once the first window (which touches
   every page) has allocated its buffers, windows allocate no more. *)
let test_cow_buffers_reused () =
  let pages = 8 in
  let len = pages * page in
  let mem = Mem.create ~obs:true () in
  let a = Mem.mmap mem len in
  let rng = Random.State.make [| 18 |] in
  Mem.fill_random mem ~addr:a ~len (Dh_rng.Mwc.create ~seed:18);
  (* Page [p] gets [n] random bytes at random offsets, or a fill. *)
  let scribble p =
    let base = a + (p * page) in
    if Random.State.int rng 4 = 0 then
      Mem.fill mem ~addr:base ~len:page (Char.chr (Random.State.int rng 256))
    else
      for _ = 1 to 1 + Random.State.int rng 64 do
        Mem.write8 mem (base + Random.State.int rng page) (Random.State.int rng 256)
      done
  in
  let scribble_some () =
    for p = 0 to pages - 1 do
      if Random.State.bool rng then scribble p
    done
  in
  (* Direct major-heap words (large blocks bypass the minor heap) spent
     inside [f]: the page buffers, and nothing else this loop does.
     [Gc.counters] counts this domain only; [Gc.quick_stat] would also
     count what helper domains of earlier tests allocated. *)
  let direct = ref 0.0 in
  let measured f =
    let _, promoted0, major0 = Gc.counters () in
    f ();
    let _, promoted1, major1 = Gc.counters () in
    direct := !direct +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  let differing snap p =
    let now = Mem.inspect mem ~addr:(a + (p * page)) ~len:page in
    let n = ref 0 in
    String.iteri (fun i c -> if c <> snap.[(p * page) + i] then incr n) now;
    !n
  in
  (* The recorder's "dirty-page delta" for a fault raised in the window:
     one line per pre-imaged page, each naming how many bytes differ. *)
  let check_delta snap =
    ignore (faults (fun () -> Mem.read8 mem 0));
    let report = Option.get (Dh_obs.Recorder.last (Mem.recorder mem)) in
    let body =
      (List.find
         (fun s -> s.Dh_obs.Recorder.title = "dirty-page delta")
         report.Dh_obs.Recorder.sections)
        .Dh_obs.Recorder.body
    in
    let lines = List.tl (String.split_on_char '\n' (String.trim body)) in
    check_int "one delta line per dirty page" (Mem.dirty_pages mem) (List.length lines);
    List.iter
      (fun line ->
        Scanf.sscanf line " page 0x%x: %d/%d bytes differ from checkpoint"
          (fun addr n total ->
            check_int "page size" page total;
            check_int
              (Printf.sprintf "bytes differing on page 0x%x" addr)
              (differing snap ((addr - a) / page))
              n))
      lines
  in
  let windows = 150 in
  for w = 1 to windows do
    let snap = Mem.inspect mem ~addr:a ~len in
    let rewind () =
      measured (fun () -> ignore (Mem.rewind mem));
      check
        (Printf.sprintf "window %d: rewound to the arm-time bytes" w)
        true
        (Mem.inspect mem ~addr:a ~len = snap)
    in
    if w = 2 then direct := 0.0;
    measured (fun () ->
        Mem.checkpoint mem;
        if w = 1 then
          for p = 0 to pages - 1 do
            scribble p
          done
        else scribble_some ());
    if w mod 10 = 0 then check_delta snap;
    match Random.State.int rng 4 with
    | 0 -> () (* committed by the next arm *)
    | 1 -> measured (fun () -> Mem.discard_checkpoint mem)
    | 2 -> rewind ()
    | _ ->
      rewind ();
      measured scribble_some;
      if w mod 10 = 5 then check_delta snap;
      rewind ()
  done;
  check "windows after the first allocate no page buffers" true
    (!direct < float_of_int (page / 8))

(* --- checkpoint / mesh interplay --- *)

let test_rewind_spans_mesh () =
  (* A checkpoint window that meshes two pages: rewind must split them
     back apart — distinct backing pages, both restored bit-for-bit, and
     writes independent again. *)
  let mem = Mem.create () in
  let a = Mem.mmap mem (2 * page) in
  Mem.fill mem ~addr:a ~len:16 'S';
  Mem.fill mem ~addr:(a + page + 64) ~len:16 'D';
  let src_before = Mem.read_bytes mem ~addr:a ~len:page in
  let dst_before = Mem.read_bytes mem ~addr:(a + page) ~len:page in
  Mem.checkpoint mem;
  Mem.alias mem ~src:a ~dst:(a + page) ~live:[ (64, 16) ];
  check_int "meshed inside the window" 1 (Mem.meshed_pages mem);
  Mem.write8 mem (a + page + 200) 0x77;
  check_int "shared store while meshed" 0x77 (Mem.read8 mem (a + 200));
  ignore (Mem.rewind mem);
  check_int "rewind unmeshes" 0 (Mem.meshed_pages mem);
  check "backing pages split again" true
    (Mem.backing_page mem a <> Mem.backing_page mem (a + page));
  check "src bit-for-bit back" true
    (Mem.read_bytes mem ~addr:a ~len:page = src_before);
  check "dst bit-for-bit back" true
    (Mem.read_bytes mem ~addr:(a + page) ~len:page = dst_before);
  Mem.write8 mem a 0x11;
  check "pages independent again" true (Mem.read8 mem (a + page) <> 0x11)

let test_mesh_page_edge_fault () =
  (* A bulk write straddling off the end of a meshed page keeps the
     exact-fault, no-tearing discipline, and rewind both restores the
     bytes and undoes the mesh. *)
  let mem = Mem.create () in
  let a = Mem.mmap mem (2 * page) in
  Mem.fill mem ~addr:a ~len:(2 * page) 'm';
  let before = Mem.read_bytes mem ~addr:a ~len:(2 * page) in
  Mem.checkpoint mem;
  Mem.alias mem ~src:a ~dst:(a + page) ~live:[];
  (match Mem.write_bytes mem ~addr:(a + (2 * page) - 5) "0123456789" with
  | () -> Alcotest.fail "straddling write off a meshed page did not fault"
  | exception Fault.Error (Fault.Unmapped { addr; _ }) ->
    check_int "fault names the first unmapped byte" (a + (2 * page)) addr
  | exception Fault.Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f));
  check "no tearing through the shared backing page" true
    (Mem.read_bytes mem ~addr:(a + (2 * page) - 5) ~len:5 = String.make 5 'm'
    && Mem.read_bytes mem ~addr:(a + page - 5) ~len:5 = String.make 5 'm');
  ignore (Mem.rewind mem);
  check_int "rewind unmeshes" 0 (Mem.meshed_pages mem);
  check "both pages bit-for-bit back" true
    (Mem.read_bytes mem ~addr:a ~len:(2 * page) = before)

(* --- QCheck equivalence: checkpoint -> mutate -> rewind = identity --- *)

type op =
  | Write8 of int * int
  | Write64 of int * int
  | Fill of int * int * char
  | Remap  (* munmap the scratch segment and map a fresh one *)

let gen_ops len =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (frequency
         [
           (4, map2 (fun o v -> Write8 (o, v land 0xFF)) (int_bound (len - 1)) int);
           (2, map2 (fun o v -> Write64 (o, v)) (int_bound (len - 9)) int);
           ( 3,
             map3
               (fun o l c -> Fill (o, min l (len - o), Char.chr (c land 0xFF)))
               (int_bound (len - 1)) (int_bound len) int );
           (1, return Remap);
         ]))

let prop_rewind_is_identity =
  let len = 4 * page in
  QCheck.Test.make ~name:"checkpoint -> mutate -> rewind = identity" ~count:200
    (QCheck.make (gen_ops len))
    (fun ops ->
      let mem = Mem.create () in
      let a = Mem.mmap mem len in
      let scratch = ref (Mem.mmap mem page) in
      Mem.fill_random mem ~addr:a ~len (Dh_rng.Mwc.create ~seed:11);
      let before = Mem.read_bytes mem ~addr:a ~len in
      let scratch_before = !scratch in
      Mem.checkpoint mem;
      List.iter
        (function
          | Write8 (o, v) -> Mem.write8 mem (a + o) v
          | Write64 (o, v) -> Mem.write64 mem (a + o) v
          | Fill (o, l, c) -> if l > 0 then Mem.fill mem ~addr:(a + o) ~len:l c
          | Remap ->
            Mem.munmap mem !scratch;
            scratch := Mem.mmap mem page;
            Mem.write8 mem !scratch 1)
        ops;
      ignore (Mem.rewind mem);
      Mem.read_bytes mem ~addr:a ~len = before
      && Mem.is_mapped mem scratch_before
      && Mem.dirty_pages mem = 0)

(* --- heap metadata snapshot/restore in lockstep with Mem.rewind --- *)

let test_heap_restore_matches_untouched_twin () =
  (* Rewind + restore must leave the heap indistinguishable from one that
     never ran the discarded window: a twin heap with the same seed that
     skips the window must hand out identical addresses afterwards. *)
  let sizes1 = [ 16; 64; 200; 16; 1024 ] and sizes2 = [ 32; 32; 500; 8 ] in
  let build () =
    let mem = Mem.create () in
    let heap =
      Diehard.Heap.create ~config:(Diehard.Config.v ~seed:42 ()) mem
    in
    (mem, heap, List.map (heap_malloc heap) sizes1)
  in
  let mem, heap, first = build () in
  Mem.checkpoint mem;
  let snap = Diehard.Heap.snapshot heap in
  (* the discarded window: allocate, free some of the originals, scribble *)
  List.iter
    (fun p -> match heap_malloc heap p with _ -> ())
    [ 64; 64; 2048 ];
  List.iter (fun p -> if p <> Dh_alloc.Allocator.null then heap_free heap p) first;
  ignore (Mem.rewind mem);
  Diehard.Heap.restore heap snap;
  let twin_mem, twin_heap, twin_first = build () in
  ignore twin_mem;
  Alcotest.(check (list int))
    "pre-window allocations agree" twin_first first;
  let after = List.map (heap_malloc heap) sizes2 in
  let twin_after = List.map (heap_malloc twin_heap) sizes2 in
  Alcotest.(check (list int))
    "post-restore allocations match the never-diverged twin" twin_after after

(* --- the supervisor's rewind rung, end to end --- *)

let server_policy ~interval =
  {
    Supervisor.default_policy with
    max_retries = 8;
    rescue = false;
    diagnose = false;
    fuel = 10_000_000;
    checkpoint_interval = interval;
    max_rewinds = (if interval > 0 then 100_000 else 0);
  }

let run_server ~interval ~attack_every =
  Supervisor.run
    ~policy:(server_policy ~interval)
    ~config:
      (Diehard.Config.v ~heap_size:Dh_workload.Server.heap_size ~seed:3 ())
    ~seed_pool:(Seed.create ~master:3)
    (Dh_workload.Server.program ~requests:1024 ~attack_every ())

let recovery_totals i =
  List.fold_left
    (fun (ck, rw, pg) (a : Supervisor.attempt_report) ->
      match a.Supervisor.recovery with
      | Some r ->
        ( ck + r.Supervisor.checkpoints,
          rw + r.Supervisor.rewinds,
          pg + r.Supervisor.pages_restored )
      | None -> (ck, rw, pg))
    (0, 0, 0) i.Supervisor.attempts

let test_rewind_rung_survives_attacks () =
  let i = run_server ~interval:32 ~attack_every:8 in
  check "survived" true (i.Supervisor.verdict = Supervisor.Survived 0);
  let ck, rw, pg = recovery_totals i in
  check "checkpoints armed" true (ck > 0);
  check "faults survived by rewind" true (rw > 0);
  check "rewind restored only dirtied pages" true
    (pg > 0 && pg < rw * (Dh_workload.Server.heap_size / page));
  check "recovery shows in the report" true
    (let s = Format.asprintf "%a" Supervisor.pp_incident i in
     let rec has sub j =
       j + String.length sub <= String.length s
       && (String.sub s j (String.length sub) = sub || has sub (j + 1))
     in
     has "rewinds" 0)

let test_rewound_fingerprint_matches_scratch () =
  (* The acceptance bar: a run recovered by rewind-and-reseed prints
     exactly what the classic restart-from-scratch ladder prints.  Also
     on the throughput bench's recovery leg, at the size its quick run
     times. *)
  List.iter
    (fun (what, run, interval) ->
      let rewound = run ~interval and scratch = run ~interval:0 in
      let survived i =
        match i.Supervisor.verdict with Supervisor.Survived _ -> true | _ -> false
      in
      check (what ^ ": rewound leg survived") true (survived rewound);
      check (what ^ ": scratch leg survived") true (survived scratch);
      let _, rw, _ = recovery_totals rewound in
      check (what ^ ": faults survived by rewind") true (rw > 0);
      Alcotest.(check (option string))
        (what ^ ": identical output") scratch.Supervisor.output rewound.Supervisor.output)
    [
      ("1024 requests", (fun ~interval -> run_server ~interval ~attack_every:8), 32);
      ("bench leg", Dh_bench.Throughput.recovery_leg ~requests:2048 ~obs:false, 64);
    ]

let test_clean_run_unaffected_by_checkpointing () =
  let plain = run_server ~interval:0 ~attack_every:0 in
  let ckpt = run_server ~interval:32 ~attack_every:0 in
  let _, rw, _ = recovery_totals ckpt in
  check_int "no faults, no rewinds" 0 rw;
  Alcotest.(check (option string))
    "identical output" plain.Supervisor.output ckpt.Supervisor.output;
  check "both clean" true
    (plain.Supervisor.verdict = Supervisor.Survived 0
    && ckpt.Supervisor.verdict = Supervisor.Survived 0)

(* --- time-travel replay on the same window loop --- *)

let replay ?(interval = 1024) svc =
  Supervisor.replay
    ~config:(Diehard.Config.v ~heap_size:Dh_workload.Server.heap_size ~seed:1 ())
    ~interval svc

let test_replay_reproduces_server_fault () =
  let r = replay (Dh_workload.Server.service ~requests:4000 ~attack_every:1000 ()) in
  check "replay exited 0" true (r.Supervisor.outcome = Dh_mem.Process.Exited 0);
  match r.Supervisor.first_fault with
  | None -> Alcotest.fail "the attack run should fault"
  | Some f ->
    check_int "fault at request 2999" 2999 f.Supervisor.at;
    Alcotest.(check (pair int int)) "window 2048..3071" (2048, 3071) f.Supervisor.window;
    check_int "952 steps replayed" 952 (List.length f.Supervisor.steps);
    check "reproduced" true (f.Supervisor.reproduction = Supervisor.Reproduced);
    check "output matches" true f.Supervisor.output_matches;
    check_int "27 bytes of window output" 27 f.Supervisor.replayed_bytes;
    check "pages restored" true (f.Supervisor.pages_restored > 0);
    check "the last step faulted" true
      ((List.nth f.Supervisor.steps 951).Supervisor.step_fault <> None);
    Alcotest.(check (option int)) "flight record at the faulting step" (Some 2999)
      (Option.bind f.Supervisor.flight (fun r -> r.Dh_obs.Recorder.step))

let test_replay_without_fault () =
  let r = replay (Dh_workload.Server.service ~requests:2000 ~attack_every:0 ()) in
  check "no fault" true (r.Supervisor.first_fault = None);
  check "replay exited 0" true (r.Supervisor.outcome = Dh_mem.Process.Exited 0)

(* A service breaking the step contract: its fault is keyed to a
   counter held in OCaml, which a rewind cannot restore, so the replayed
   window runs past the original fault step without faulting. *)
let test_replay_flags_hidden_state () =
  let hidden = ref 0 in
  let svc =
    {
      Dh_alloc.Program.requests = 100;
      init =
        (fun ctx ->
          {
            Dh_alloc.Program.handle =
              (fun _ ->
                incr hidden;
                if !hidden = 50 then Mem.write8 ctx.Dh_alloc.Program.alloc.mem 0 1);
            finish = ignore;
          });
    }
  in
  match (replay ~interval:16 svc).Supervisor.first_fault with
  | None -> Alcotest.fail "the forward run should fault"
  | Some f ->
    check_int "forward fault at request 49" 49 f.Supervisor.at;
    check "not reproduced" true (f.Supervisor.reproduction = Supervisor.Vanished)

let test_replay_rejects_bad_interval () =
  Alcotest.check_raises "interval 0"
    (Invalid_argument "Supervisor.replay: checkpoint interval must be positive")
    (fun () -> ignore (replay ~interval:0 (Dh_workload.Server.service ~requests:8 ())))

(* The recorder's dirty-page delta compares pages word by word; each
   page's count must equal the bytewise count, which is kept here as
   the reference.  The writes cover the page's first and last bytes,
   whole words, single bytes of a word, and bytes rewritten with the
   value they already held (a dirty page with no difference). *)
let test_dirty_delta_counts_bytes () =
  let pages = 6 in
  let mem = Mem.create ~obs:true () in
  let a = Mem.mmap mem (pages * page) in
  Mem.fill_random mem ~addr:a ~len:(pages * page) (Dh_rng.Mwc.create ~seed:5);
  Mem.checkpoint mem;
  let snap = Mem.inspect mem ~addr:a ~len:(pages * page) in
  let rng = Random.State.make [| 5 |] in
  let same addr = Mem.write8 mem addr (Char.code snap.[addr - a]) in
  Mem.write8 mem a (Char.code snap.[0] lxor 1);
  Mem.write8 mem (a + page - 1) (Char.code snap.[page - 1] lxor 0x80);
  Mem.write64 mem (a + page + 64) (-1);
  Mem.write64 mem (a + page + 4088) 0;
  for i = 0 to 511 do
    same (a + (2 * page) + (8 * i) + (i land 7))
  done;
  Mem.fill mem ~addr:(a + (3 * page)) ~len:page '\x5a';
  for _ = 1 to 300 do
    Mem.write8 mem (a + (4 * page) + Random.State.int rng page) (Random.State.int rng 256)
  done;
  for i = 0 to 99 do
    Mem.write8 mem (a + (5 * page) + (40 * i) + 3) (Random.State.int rng 256)
  done;
  let bytewise p =
    let now = Mem.inspect mem ~addr:(a + (p * page)) ~len:page in
    let n = ref 0 in
    for i = 0 to page - 1 do
      if now.[i] <> snap.[(p * page) + i] then incr n
    done;
    !n
  in
  ignore (faults (fun () -> Mem.read8 mem 0));
  let report = Option.get (Dh_obs.Recorder.last (Mem.recorder mem)) in
  let body =
    (List.find
       (fun s -> s.Dh_obs.Recorder.title = "dirty-page delta")
       report.Dh_obs.Recorder.sections)
      .Dh_obs.Recorder.body
  in
  let lines = List.tl (String.split_on_char '\n' (String.trim body)) in
  check_int "one line per dirty page" pages (List.length lines);
  List.iter
    (fun line ->
      Scanf.sscanf line " page 0x%x: %d/%d" (fun addr n _ ->
          let p = (addr - a) / page in
          check_int (Printf.sprintf "page %d: word-wise = bytewise" p) (bytewise p) n))
    lines

(* What one memory fault's flight capture allocates with obs on, a
   checkpoint armed over dirty pages and a full 4,096-event trace ring:
   the capture reads its own space's ring's newest 64 events rather
   than sorting every retained one, and reads no audit, so it stays
   under a pinned bound (minor words on this domain with OCaml 5.1:
   about 2,030; merging and sorting every ring's newest 64 made it
   3,604, a top-sites section read from a process-wide audit about
   3,870 with no site recorded, rebuilding that audit's class histograms
   11,631, and sorting the whole ring 354,162). *)
let fault_capture_words_bound = 6_000.

let test_fault_capture_allocation () =
  let mem = Mem.create ~obs:true () in
  let a = Mem.mmap mem (8 * page) in
  Mem.checkpoint mem;
  for p = 0 to 7 do
    Mem.fill mem ~addr:(a + (p * page)) ~len:(page / 2) (Char.chr (p + 1))
  done;
  for _ = 1 to Dh_obs.Tracing.ring_capacity + 1 do
    Dh_obs.Recorder.instant (Mem.recorder mem) "test.fill"
  done;
  let before = Gc.minor_words () in
  check "faulted" true (faults (fun () -> Mem.read8 mem 0));
  let words = Gc.minor_words () -. before in
  let report = Option.get (Dh_obs.Recorder.last (Mem.recorder mem)) in
  check_int "the capture holds the recorder's window" Dh_obs.Recorder.window
    (List.length report.Dh_obs.Recorder.events);
  if words > fault_capture_words_bound then
    Alcotest.failf "fault capture allocated %.0f minor words (bound %.0f)" words
      fault_capture_words_bound

let suite =
  [
    Alcotest.test_case "cow round trip" `Quick test_cow_roundtrip;
    Alcotest.test_case "rewind spans munmap" `Quick test_rewind_spans_munmap;
    Alcotest.test_case "rewind across protect" `Quick test_rewind_across_protect;
    Alcotest.test_case "fault at page edges" `Quick test_fault_at_page_edges;
    Alcotest.test_case "double rewind" `Quick test_double_rewind;
    Alcotest.test_case "discard stops pre-imaging" `Quick test_discard_stops_preimaging;
    Alcotest.test_case "cow buffers reused across windows" `Quick test_cow_buffers_reused;
    Alcotest.test_case "dirty delta = bytewise count" `Quick test_dirty_delta_counts_bytes;
    Alcotest.test_case "fault capture allocation" `Quick test_fault_capture_allocation;
    Alcotest.test_case "rewind spans mesh" `Quick test_rewind_spans_mesh;
    Alcotest.test_case "mesh page-edge fault" `Quick test_mesh_page_edge_fault;
    QCheck_alcotest.to_alcotest prop_rewind_is_identity;
    Alcotest.test_case "heap restore = untouched twin" `Quick
      test_heap_restore_matches_untouched_twin;
    Alcotest.test_case "rewind rung survives attacks" `Quick
      test_rewind_rung_survives_attacks;
    Alcotest.test_case "rewound fingerprint = scratch" `Quick
      test_rewound_fingerprint_matches_scratch;
    Alcotest.test_case "clean run unaffected" `Quick
      test_clean_run_unaffected_by_checkpointing;
    Alcotest.test_case "replay reproduces the server fault" `Quick
      test_replay_reproduces_server_fault;
    Alcotest.test_case "replay without a fault" `Quick test_replay_without_fault;
    Alcotest.test_case "replay flags hidden state" `Quick test_replay_flags_hidden_state;
    Alcotest.test_case "replay rejects interval 0" `Quick test_replay_rejects_bad_interval;
  ]
