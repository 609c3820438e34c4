(* Tests for the synthetic workloads and the two MiniC applications:
   profile/driver determinism and allocator-independence, the espresso-sim
   fault-injection story, and the Squid case study (§7.3). *)

module Mem = Dh_mem.Mem
module Process = Dh_mem.Process
module Allocator = Dh_alloc.Allocator
module Program = Dh_alloc.Program
open Dh_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fresh_freelist ?variant () =
  let mem = Mem.create () in
  Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create ?variant mem)

let fresh_gc () =
  let mem = Mem.create () in
  Dh_alloc.Gc.allocator (Dh_alloc.Gc.create mem)

let fresh_diehard ?(seed = 1) ?(heap = 12 * 1024 * 1024) () =
  let mem = Mem.create () in
  let config = Diehard.Config.v ~heap_size:heap ~seed () in
  Diehard.Heap.allocator (Diehard.Heap.create ~config mem)

(* --- profiles --- *)

let test_profiles_complete () =
  check_int "five alloc-intensive" 5 (List.length Profile.alloc_intensive);
  check_int "twelve SPEC" 12 (List.length Profile.spec);
  check "lookup works" true (Profile.find "espresso" <> None);
  check "SPEC lookup" true (Profile.find "300.twolf" <> None);
  check "unknown is None" true (Profile.find "nonesuch" = None)

let test_profile_weights_positive () =
  List.iter
    (fun p ->
      check (p.Profile.name ^ " ops positive") true (p.Profile.ops > 0);
      Array.iter
        (fun (size, w) ->
          check (p.Profile.name ^ " sizes sane") true (size > 0 && w >= 0.))
        p.Profile.sizes;
      check
        (p.Profile.name ^ " lifetime sane")
        true
        (p.Profile.lifetime_mean >= 1.))
    Profile.all

let test_scale () =
  match Profile.find "cfrac" with
  | Some p ->
    let half = Profile.scale p ~factor:0.5 in
    check_int "halved" (p.Profile.ops / 2) half.Profile.ops
  | None -> Alcotest.fail "cfrac missing"

(* --- driver --- *)

let tiny =
  {
    Profile.name = "tiny";
    suite = Profile.Alloc_intensive;
    ops = 3_000;
    sizes = [| (16, 0.5); (64, 0.3); (256, 0.2) |];
    lifetime_mean = 20.;
    touch_fraction = 1.0;
    compute_per_op = 5;
    large_rate = 0.01;
  }

let test_driver_deterministic () =
  let r1 = Driver.run ~seed:7 tiny (fresh_freelist ()) in
  let r2 = Driver.run ~seed:7 tiny (fresh_freelist ()) in
  check_int "same checksum" r1.Driver.checksum r2.Driver.checksum;
  let r3 = Driver.run ~seed:8 tiny (fresh_freelist ()) in
  check "different seed differs" true (r3.Driver.checksum <> r1.Driver.checksum)

let test_driver_checksum_allocator_independent () =
  (* A correct workload must compute the same result whatever the memory
     manager — the replicated-execution premise. *)
  let expected = (Driver.run ~seed:3 tiny (fresh_freelist ())).Driver.checksum in
  List.iter
    (fun (name, alloc) ->
      let r = Driver.run ~seed:3 tiny alloc in
      check_int (name ^ " checksum matches") expected r.Driver.checksum;
      check_int (name ^ " no failed allocations") 0 r.Driver.failed_allocations)
    [
      ("freelist-win", fresh_freelist ~variant:Dh_alloc.Freelist.Windows ());
      ("gc", fresh_gc ());
      ("diehard", fresh_diehard ());
      ("diehard(seed 9)", fresh_diehard ~seed:9 ());
    ]

let test_driver_frees_everything () =
  let alloc = fresh_freelist () in
  let _ = Driver.run tiny alloc in
  check_int "no live objects at the end" 0
    alloc.Allocator.stats.Dh_alloc.Stats.live_objects

let test_driver_peak_live_tracks_lifetime () =
  let alloc = fresh_freelist () in
  let r = Driver.run tiny alloc in
  (* Little's law: live ≈ lifetime_mean; allow generous slack. *)
  check
    (Printf.sprintf "peak live %d sane" r.Driver.peak_live)
    true
    (r.Driver.peak_live > 5 && r.Driver.peak_live < 500)

let test_heap_size_for_serves_profiles () =
  List.iter
    (fun p ->
      let p = Profile.scale p ~factor:0.1 in
      let alloc = fresh_diehard ~heap:(Driver.heap_size_for p) () in
      let r = Driver.run p alloc in
      check (p.Profile.name ^ " fits its sized heap") true
        (r.Driver.failed_allocations = 0))
    Profile.alloc_intensive

(* The Figure-5 profiles, scaled down, on three heaps: DieHard (M = 2,
   meshing on, a pass every 32 KiB freed so short runs mesh), freelist-lea
   and gc-bdw (bounded as in Figure 5, so it collects through the
   driver's registered roots).  Each run's result, every [Mem.stats]
   field, the touched pages, the allocator's probes and collections and
   the heap's meshes are pinned exactly: the driver's accesses, the
   order it frees in (which decides what meshes) and the roots it
   reports must not move. *)
let pinned_heaps =
  [
    ( "diehard",
      fun p ->
        let config =
          Diehard.Config.v ~heap_size:(Driver.heap_size_for p) ~seed:5 ~mesh:true
            ~mesh_threshold:(32 lsl 10) ()
        in
        let heap = Diehard.Heap.create ~config (Mem.create ()) in
        (Diehard.Heap.allocator heap, fun () -> Diehard.Heap.meshes heap) );
    ("freelist-lea", fun _ -> (fresh_freelist (), fun () -> 0));
    ( "gc-bdw",
      fun _ ->
        let mem = Mem.create () in
        let gc = Dh_alloc.Gc.create ~arena_size:(64 lsl 10) ~heap_limit:(512 lsl 10) mem in
        (Dh_alloc.Gc.allocator gc, fun () -> 0) );
  ]

let pinned_row (p : Profile.t) make =
  let alloc, meshes = make p in
  let r = Driver.run ~seed:11 p alloc in
  let mem = alloc.Allocator.mem in
  let st = Mem.stats mem and a = alloc.Allocator.stats in
  [
    ("checksum", r.Driver.checksum);
    ("peak live", r.Driver.peak_live);
    ("failed", r.Driver.failed_allocations);
    ("reads", st.Mem.reads);
    ("writes", st.Mem.writes);
    ("mmaps", st.Mem.mmaps);
    ("munmaps", st.Mem.munmaps);
    ("tlb misses", st.Mem.tlb_misses);
    ("cache misses", st.Mem.cache_misses);
    ("dirty pages", st.Mem.dirty_pages);
    ("touched pages", Mem.touched_pages mem);
    ("probes", a.Dh_alloc.Stats.probes);
    ("collections", a.Dh_alloc.Stats.gc_collections);
    ("meshes", meshes ());
  ]

(* Recorded from the per-word driver: name, heap, then [pinned_row]'s
   fields in order. *)
let driver_pins =
  [
    ("cfrac", "diehard", [ 525802022; 20; 0; 16077; 16077; 4; 0; 4214; 5637; 253; 128; 6006; 0; 128 ]);
    ("cfrac", "freelist-lea", [ 525802022; 20; 0; 50791; 52025; 1; 0; 1; 16; 1; 1; 7102; 0; 0 ]);
    ("cfrac", "gc-bdw", [ 525802022; 20; 0; 25473; 25894; 1; 0; 16; 1024; 16; 16; 0; 3; 0 ]);
    ("espresso", "diehard", [ 2940928819; 58; 0; 89690; 89690; 6; 0; 4775; 12559; 279; 192; 6018; 0; 192 ]);
    ("espresso", "freelist-lea", [ 2940928819; 58; 0; 136265; 133170; 1; 0; 4; 224; 4; 4; 12402; 0; 0 ]);
    ("espresso", "gc-bdw", [ 2940928819; 58; 0; 161148; 101303; 1; 0; 16; 1024; 16; 16; 280; 13; 0 ]);
    ("lindsay", "diehard", [ 441177754; 37; 0; 13491; 13491; 4; 0; 3516; 4687; 253; 128; 5004; 0; 128 ]);
    ("lindsay", "freelist-lea", [ 441177754; 37; 0; 42319; 44007; 1; 0; 1; 27; 1; 1; 6143; 0; 0 ]);
    ("lindsay", "gc-bdw", [ 441177754; 37; 0; 23607; 21363; 1; 0; 16; 1024; 16; 16; 5; 3; 0 ]);
    ("p2c", "diehard", [ 2498980399; 77; 0; 76326; 76326; 6; 0; 4029; 10549; 280; 192; 5027; 0; 192 ]);
    ("p2c", "freelist-lea", [ 2498980399; 77; 0; 117967; 112962; 1; 0; 5; 291; 5; 5; 11922; 0; 0 ]);
    ("p2c", "gc-bdw", [ 2498980399; 77; 0; 161640; 86957; 1; 0; 16; 1024; 16; 16; 400; 12; 0 ]);
    ("roboop", "diehard", [ 699362004; 9; 0; 21404; 21404; 4; 0; 5592; 7495; 254; 128; 8002; 0; 128 ]);
    ("roboop", "freelist-lea", [ 699362004; 9; 0; 68937; 69201; 1; 0; 1; 8; 1; 1; 9139; 0; 0 ]);
    ("roboop", "gc-bdw", [ 699362004; 9; 0; 34996; 35196; 1; 0; 16; 1024; 16; 16; 0; 4; 0 ]);
  ]

let test_driver_pinned () =
  List.iter
    (fun (p : Profile.t) ->
      let p = Profile.scale p ~factor:0.1 in
      List.iter
        (fun (heap, make) ->
          let row = pinned_row p make in
          match
            List.find_opt (fun (n, h, _) -> n = p.Profile.name && h = heap) driver_pins
          with
          | None -> Alcotest.failf "no pin for %s on %s" p.Profile.name heap
          | Some (_, _, expected) ->
            List.iter2
              (fun (field, got) want ->
                check_int (Printf.sprintf "%s on %s: %s" p.Profile.name heap field) want got)
              row expected)
        pinned_heaps)
    Profile.alloc_intensive

(* 181.mcf on gc-bdw with room to grow (no NULL return): its live set
   peaks at 603, past the 512 entries at which the generic table the
   driver's live order reproduces doubles its buckets, and its 66
   collections take the roots in that order.  Recorded with the driver
   that kept that table. *)
let test_driver_pinned_past_resize () =
  let p = Option.get (Profile.find "181.mcf") in
  let mem = Mem.create () in
  let gc = Dh_alloc.Gc.create ~arena_size:(64 lsl 10) ~heap_limit:(4 lsl 20) mem in
  let alloc = Dh_alloc.Gc.allocator gc in
  let r = Driver.run ~seed:11 p alloc in
  let st = Mem.stats mem in
  List.iter
    (fun (field, want, got) -> check_int ("181.mcf on gc-bdw: " ^ field) want got)
    [
      ("checksum", 14685390672, r.Driver.checksum);
      ("peak live", 603, r.Driver.peak_live);
      ("failed", 0, r.Driver.failed_allocations);
      ("reads", 92671813, st.Mem.reads);
      ("writes", 496643, st.Mem.writes);
      ("mmaps", 40, st.Mem.mmaps);
      ("munmaps", 0, st.Mem.munmaps);
      ("tlb misses", 72846, st.Mem.tlb_misses);
      ("cache misses", 1566534, st.Mem.cache_misses);
      ("dirty pages", 610, st.Mem.dirty_pages);
      ("touched pages", 610, Mem.touched_pages mem);
      ("probes", 5564, alloc.Allocator.stats.Dh_alloc.Stats.probes);
      ("collections", 66, alloc.Allocator.stats.Dh_alloc.Stats.gc_collections);
    ]

(* [Driver.live_order] against the table it stands for: after inserts
   (fresh addresses and reused ones) and removes, the live addresses in
   the order a [Hashtbl.Make (Int)] created with 256 buckets folds them
   into a list.  Every sequence grows past 512 and 1,024 live entries,
   so both bucket doublings happen, and enumerates along the way. *)
module Int_table = Hashtbl.Make (Int)

type live_action = Insert of int | Remove of int | Enumerate

let prop_live_order_is_table_fold =
  let gen =
    QCheck.Gen.(
      int_range 2_400 3_600 >>= fun n ->
      list_repeat n
        (frequency
           [
             (12, map (fun a -> Insert a) (int_bound 65_535));
             (4, map (fun a -> Insert a) (int_bound 2_047));
             (4, map (fun i -> Remove i) nat);
             (1, return Enumerate);
           ]))
  in
  QCheck.Test.make ~name:"driver live order is the generic table's fold" ~count:20
    (QCheck.make gen) (fun actions ->
      let n = List.length actions in
      let table = Int_table.create 256 in
      let born = Array.make (n + 1) 0 and live = Array.make (n + 1) 0 in
      let count = ref 0 and peak = ref 0 in
      let enumerate () =
        let want = Int_table.fold (fun addr () acc -> addr :: acc) table [] in
        let got = Driver.live_order ~peak:!peak ~born live !count in
        if Array.to_list (Array.map (fun op -> born.(op)) got) <> want then
          QCheck.Test.fail_reportf "order differs at %d live, peak %d" !count !peak
      in
      List.iteri
        (fun i action ->
          match action with
          | Insert a ->
            let addr = 0x1000_0000 + (16 * a) in
            if not (Int_table.mem table addr) then begin
              Int_table.replace table addr ();
              born.(i + 1) <- addr;
              live.(!count) <- i + 1;
              incr count;
              peak := Int.max !peak !count
            end
          | Remove k when !count > 0 ->
            let j = k mod !count in
            Int_table.remove table born.(live.(j));
            born.(live.(j)) <- 0;
            live.(j) <- live.(!count - 1);
            decr count
          | Remove _ -> ()
          | Enumerate -> enumerate ())
        actions;
      enumerate ();
      !peak > 1_024)

(* The minor words one driver op allocates, obs off: the difference
   between two trace lengths, so set-up and the epilogue cancel.  The
   driver's own bookkeeping is int arrays and a malloc's result is an
   unboxed address, so an op adds nothing to the allocator's own
   allocation: freelist-lea's figure is its bin search's and arena
   lookup's options, tuples and closures, and DieHard's malloc and free
   allocate nothing (it reads -0.003: the 8,000-op run allocates 12
   words fewer than the 4,000-op one).  A cons cell, a hash bucket, a boxed float
   or a closure per op would show here. *)
let driver_words_per_op alloc =
  let espresso = Option.get (Profile.find "espresso") in
  let words ops =
    let alloc = alloc () in
    let before = Gc.minor_words () in
    ignore (Driver.run ~seed:5 { espresso with Profile.ops } alloc);
    Gc.minor_words () -. before
  in
  (words 8_000 -. words 4_000) /. 4_000.

let test_driver_words_per_op () =
  Alcotest.(check (float 0.0005)) "minor words per op" 32.8998
    (driver_words_per_op (fun () -> fresh_freelist ()))

let test_driver_words_per_op_diehard () =
  Alcotest.(check (float 0.0005)) "minor words per op" (-0.003)
    (driver_words_per_op (fun () -> fresh_diehard ()))

(* --- espresso-sim --- *)

let test_espresso_parses_and_runs () =
  let r = Program.run (Apps.espresso ()) (fresh_freelist ()) in
  check "exits cleanly" true (r.Process.outcome = Process.Exited 0);
  (* deterministic output: rounds + final checksum *)
  let parts = String.split_on_char '#' r.Process.output in
  check_int "checksum marker present" 2 (List.length parts)

let test_espresso_output_allocator_independent () =
  let reference = (Program.run (Apps.espresso ()) (fresh_freelist ())).Process.output in
  List.iter
    (fun (name, alloc) ->
      let r = Program.run (Apps.espresso ()) alloc in
      check (name ^ " exits") true (r.Process.outcome = Process.Exited 0);
      Alcotest.(check string) (name ^ " output") reference r.Process.output)
    [ ("gc", fresh_gc ()); ("diehard", fresh_diehard ()) ]

let test_espresso_allocation_volume () =
  let alloc = fresh_freelist () in
  let tracer, traced = Dh_alloc.Trace.wrap alloc in
  let r = Program.run (Apps.espresso ()) traced in
  check "ran" true (r.Process.outcome = Process.Exited 0);
  check "well over 1000 allocations" true
    (alloc.Dh_alloc.Allocator.stats.Dh_alloc.Stats.mallocs > 1_000);
  check "hundreds of lifetimes logged" true
    (List.length (Dh_alloc.Trace.lifetimes tracer) > 500)

(* --- squid-sim (§7.3 Real Faults) --- *)

let run_squid alloc input = Program.run ~input (Apps.squid ()) alloc

let test_squid_well_formed_everywhere () =
  let input = Apps.squid_good_input ~requests:20 in
  let reference = run_squid (fresh_freelist ()) input in
  check "freelist serves" true (reference.Process.outcome = Process.Exited 0);
  check "served all" true
    (String.length reference.Process.output > 0
    && String.sub reference.Process.output
         (String.length reference.Process.output - 10)
         9
       = "served=20");
  List.iter
    (fun (name, alloc) ->
      let r = run_squid alloc input in
      check (name ^ " exits") true (r.Process.outcome = Process.Exited 0);
      Alcotest.(check string) (name ^ " output") reference.Process.output r.Process.output)
    [ ("gc", fresh_gc ()); ("diehard", fresh_diehard ()) ]

let test_squid_attack_crashes_freelist () =
  let r = run_squid (fresh_freelist ()) (Apps.squid_attack_input ~requests:20) in
  match r.Process.outcome with
  | Process.Crashed _ -> ()
  | o -> Alcotest.failf "expected crash under freelist, got %s" (Process.outcome_to_string o)

let test_squid_attack_crashes_gc () =
  let r = run_squid (fresh_gc ()) (Apps.squid_attack_input ~requests:20) in
  match r.Process.outcome with
  | Process.Crashed _ -> ()
  | o -> Alcotest.failf "expected crash under GC, got %s" (Process.outcome_to_string o)

let test_squid_attack_survives_diehard () =
  (* "Using DieHard in stand-alone mode, the overflow has no effect."
     Check across several seeds: the server keeps serving every request
     including those after the attack. *)
  for seed = 1 to 5 do
    let r = run_squid (fresh_diehard ~seed ()) (Apps.squid_attack_input ~requests:20) in
    check
      (Printf.sprintf "diehard seed %d survives" seed)
      true
      (r.Process.outcome = Process.Exited 0);
    check "all 20 served" true
      (String.sub r.Process.output (String.length r.Process.output - 10) 9 = "served=20")
  done

(* --- the native server's request stream, pinned exactly --- *)

(* The request hash and key derivation as the server has always defined
   them: the oracle [Server.url_of] must match byte for byte. *)
let mix k =
  let h = (k * 0x9E3779B9) + 0x7F4A7C15 in
  let h = (h lxor (h lsr 16)) * 0x85EBCA6B in
  (h lxor (h lsr 13)) land 0x3FFFFFFF

let test_server_urls () =
  let zipf_keys = Dh_rng.Dist.zipf_table ~n:1024 ~s:1.1 in
  let padded = Bytes.create 3000 in
  List.iter
    (fun (name, zipf, key) ->
      let url = Server.url_of ?zipf () in
      for k = 0 to 199_999 do
        let base = Printf.sprintf "http://h%03x.example/%d" (key k) (mix (k + 1) land 0xFFF) in
        let got = url ~attack:false k in
        if got <> base then Alcotest.failf "%s keys, request %d: %S, want %S" name k got base;
        let n = String.length base in
        Bytes.blit_string base 0 padded 0 n;
        Bytes.fill padded n (3000 - n) 'A';
        if not (Bytes.equal padded (Bytes.unsafe_of_string (url ~attack:true k))) then
          Alcotest.failf "%s keys, request %d: attack URL is not %S padded to 3000" name k base
      done)
    [
      ("uniform", None, fun k -> mix k land 1023);
      ( "zipf",
        Some 1.1,
        fun k -> Dh_rng.Dist.zipf_rank zipf_keys ~h:(mix k) - 1 );
    ]

(* The minor words one request's URL costs, obs off, over requests 0 to
   9,999 of Zipf 1.1 keys: the URL string alone (four or five words).
   The key stream is built before counting starts, and [zipf_rank]
   takes the hash as an int.  A closure in the rank search, a boxed
   digit count or a float boxed across the rank call (two words, 6.7597
   in all) would show here; the binary search and variable-radix digits
   read 12.7597. *)
let test_server_url_words () =
  let url = Server.url_of ~zipf:1.1 () in
  let before = Gc.minor_words () in
  for k = 0 to 9_999 do
    ignore (Sys.opaque_identity (url ~attack:false k))
  done;
  Alcotest.(check (float 0.0005)) "minor words per URL" 4.7597
    ((Gc.minor_words () -. before) /. 10_000.)

(* One supervised server run with attacks (Zipf 1.1 keys, the serve
   bench's traffic shape): its output, recovery counts and the simulated
   machine's exact counters, as the bytewise title strcpy produced them.
   The attacks fault on the hole page six times, so the pins cover the
   writes a faulting strcpy makes before its fault. *)
let test_server_supervised_pinned () =
  let module Supervisor = Diehard.Supervisor in
  let heap = ref None in
  let incident =
    Supervisor.run
      ~policy:
        {
          Supervisor.default_policy with
          Supervisor.checkpoint_interval = 256;
          max_rewinds = 64;
        }
      ~config:(Diehard.Config.v ~heap_size:Server.heap_size ~obs:true ())
      ~seed_pool:(Dh_rng.Seed.create ~master:3)
      ~wrap:(fun _ a ->
        heap := Some a;
        a)
      (Server.program ~requests:4000 ~attack_every:97 ~zipf:1.1 ())
  in
  let output = Option.value incident.Supervisor.output ~default:"" in
  Alcotest.(check string) "last line"
    "done requests=4000 stored=384 hits=3212 failed=0 checksum=847831991"
    (List.nth (List.rev (String.split_on_char '\n' (String.trim output))) 0);
  check_int "attempts" 1 (List.length incident.Supervisor.attempts);
  (match (List.hd incident.Supervisor.attempts).Supervisor.recovery with
  | Some r ->
    check_int "checkpoints" 22 r.Supervisor.checkpoints;
    check_int "rewinds" 6 r.Supervisor.rewinds;
    check_int "pages restored" 155 r.Supervisor.pages_restored;
    check_int "pre-imaged pages" 675 r.Supervisor.preimaged_pages
  | None -> Alcotest.fail "no recovery report");
  let mem = (Option.get !heap).Allocator.mem in
  let st = Mem.stats mem in
  check_int "reads" 55_225 st.Mem.reads;
  check_int "writes" 320_765 st.Mem.writes;
  check_int "tlb misses" 43 st.Mem.tlb_misses;
  check_int "cache misses" 6_787 st.Mem.cache_misses;
  check_int "touched pages" 42 (Mem.touched_pages mem);
  check_int "mem pre-imaged pages" 675 (Mem.preimaged_pages mem)

(* The minor words a served request allocates, obs off, on a plain
   DieHard run: the difference between two run lengths, so set-up and
   the final report cancel out.  The URL string is what is left (a
   malloc's result is an unboxed address); a closure or a boxed result
   per request would show here. *)
let test_server_request_words () =
  let words requests =
    let alloc = fresh_diehard ~heap:Server.heap_size () in
    let before = Gc.minor_words () in
    let r = Program.run (Server.program ~requests ()) alloc in
    let words = Gc.minor_words () -. before in
    check "server exited 0" true (r.Process.outcome = Process.Exited 0);
    words
  in
  let per_request = (words 4096 -. words 2048) /. 2048. in
  (* 9.96 at the time of writing: one more closure would pass 10.5. *)
  check (Printf.sprintf "%.2f minor words per request <= 10.5" per_request) true
    (per_request <= 10.5)

let test_server_rejects_negative_attack_every () =
  Alcotest.check_raises "attack_every < 0"
    (Invalid_argument "Server.service: attack_every must be >= 0") (fun () ->
      ignore (Server.service ~requests:8 ~attack_every:(-3) ()))

let suite =
  [
    Alcotest.test_case "profiles complete" `Quick test_profiles_complete;
    Alcotest.test_case "profile parameters sane" `Quick test_profile_weights_positive;
    Alcotest.test_case "profile scaling" `Quick test_scale;
    Alcotest.test_case "driver deterministic" `Quick test_driver_deterministic;
    Alcotest.test_case "driver allocator-independent" `Quick
      test_driver_checksum_allocator_independent;
    Alcotest.test_case "driver frees all" `Quick test_driver_frees_everything;
    Alcotest.test_case "driver peak live" `Quick test_driver_peak_live_tracks_lifetime;
    Alcotest.test_case "heap sizing" `Quick test_heap_size_for_serves_profiles;
    Alcotest.test_case "driver pinned on three heaps" `Quick test_driver_pinned;
    Alcotest.test_case "driver pinned past a table resize" `Quick
      test_driver_pinned_past_resize;
    QCheck_alcotest.to_alcotest prop_live_order_is_table_fold;
    Alcotest.test_case "driver minor words per op" `Quick test_driver_words_per_op;
    Alcotest.test_case "driver minor words per op on DieHard" `Quick
      test_driver_words_per_op_diehard;
    Alcotest.test_case "server minor words per URL" `Quick test_server_url_words;
    Alcotest.test_case "espresso runs" `Quick test_espresso_parses_and_runs;
    Alcotest.test_case "espresso allocator-independent" `Quick
      test_espresso_output_allocator_independent;
    Alcotest.test_case "espresso allocation volume" `Quick test_espresso_allocation_volume;
    Alcotest.test_case "squid well-formed" `Quick test_squid_well_formed_everywhere;
    Alcotest.test_case "squid attack: freelist crashes" `Quick test_squid_attack_crashes_freelist;
    Alcotest.test_case "squid attack: GC crashes" `Quick test_squid_attack_crashes_gc;
    Alcotest.test_case "squid attack: DieHard survives" `Quick test_squid_attack_survives_diehard;
    Alcotest.test_case "server URLs match Printf" `Quick test_server_urls;
    Alcotest.test_case "server supervised run pinned" `Quick test_server_supervised_pinned;
    Alcotest.test_case "server request allocates no closure" `Quick
      test_server_request_words;
    Alcotest.test_case "server rejects attack_every < 0" `Quick
      test_server_rejects_negative_attack_every;
  ]
