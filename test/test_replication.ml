(* Tests for the voter and the replicated runtime (§5). *)

module Mem = Dh_mem.Mem
module Process = Dh_mem.Process
module Allocator = Dh_alloc.Allocator
module Program = Dh_alloc.Program
open Diehard

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- voter --- *)

let ballot replica chunk = { Voter.replica; chunk }

let test_vote_unanimous () =
  match Voter.vote [ ballot 0 "abc"; ballot 1 "abc"; ballot 2 "abc" ] with
  | Voter.Unanimous "abc" -> ()
  | _ -> Alcotest.fail "expected unanimity"

let test_vote_single_replica () =
  match Voter.vote [ ballot 0 "x" ] with
  | Voter.Unanimous "x" -> ()
  | _ -> Alcotest.fail "single replica is trivially unanimous"

let test_vote_majority_kills_minority () =
  match Voter.vote [ ballot 0 "good"; ballot 1 "BAD"; ballot 2 "good" ] with
  | Voter.Majority { chunk = "good"; losers = [ 1 ] } -> ()
  | _ -> Alcotest.fail "expected 2-1 majority killing replica 1"

let test_vote_no_quorum_all_differ () =
  match Voter.vote [ ballot 0 "a"; ballot 1 "b"; ballot 2 "c" ] with
  | Voter.No_quorum -> ()
  | _ -> Alcotest.fail "expected no quorum"

let test_vote_two_disagree () =
  match Voter.vote [ ballot 0 "a"; ballot 1 "b" ] with
  | Voter.No_quorum -> ()
  | _ -> Alcotest.fail "two disagreeing replicas cannot be decided"

let test_vote_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Voter.vote: no ballots") (fun () ->
      ignore (Voter.vote []))

(* The voter's buffer: the 4 KB pipe-transfer unit of §5.2. *)
let voter_chunk = 4096

let test_chunks_of_output () =
  let big = String.make (voter_chunk + 100) 'x' in
  (match Voter.chunks_of_output ~crashed:false big with
  | [ full; partial ] ->
    check_int "full chunk" voter_chunk (String.length full);
    check_int "partial" 100 (String.length partial)
  | _ -> Alcotest.fail "expected two chunks");
  (* A crashed replica loses its trailing partial chunk. *)
  (match Voter.chunks_of_output ~crashed:true big with
  | [ full ] -> check_int "only the full chunk" voter_chunk (String.length full)
  | _ -> Alcotest.fail "crashed replica keeps only full chunks");
  (* Normal exit with empty output still presents one (empty) buffer. *)
  match Voter.chunks_of_output ~crashed:false "" with
  | [ "" ] -> ()
  | _ -> Alcotest.fail "empty output is one empty chunk"

(* --- replicated runtime --- *)

let well_behaved =
  Program.make ~name:"well-behaved" (fun ctx ->
      let a = ctx.Program.alloc in
      let p = Allocator.malloc_exn a 64 in
      Mem.write64 a.Allocator.mem p 41;
      Mem.write64 a.Allocator.mem p (Mem.read64 a.Allocator.mem p + 1);
      Process.Out.printf ctx.Program.out "result=%d input=%s" (Mem.read64 a.Allocator.mem p)
        ctx.Program.input;
      a.Allocator.free p)

let test_replicated_agreement () =
  let report = Replicated.run ~replicas:3 ~input:"I" well_behaved in
  check "verdict agreed" true (report.Replicated.verdict = Replicated.Agreed);
  check_string "voted output" "result=42 input=I" report.Replicated.output;
  List.iter
    (fun r ->
      check "no replica eliminated" true (r.Replicated.eliminated = None);
      check "all exited" true (r.Replicated.outcome = Process.Exited 0))
    report.Replicated.replicas

let test_replicated_distinct_seeds () =
  let report = Replicated.run ~replicas:3 well_behaved in
  let seeds = List.map (fun r -> r.Replicated.seed) report.Replicated.replicas in
  check_int "three distinct seeds" 3 (List.length (List.sort_uniq compare seeds))

(* Regression for the exact error text: it must say why two replicas
   cannot work (the §6 quorum argument) and point at the CLI flag. *)
let test_replicated_rejects_two () =
  Alcotest.check_raises "two replicas rejected"
    (Invalid_argument
       "Replicated.run: need one replica or at least three — with exactly two, \
        disagreeing replicas split 1-1 and the voter has no majority to commit \
        (the paper's quorum argument, §6); pass --replicas 1 or --replicas 3 \
        to `diehard replicate`")
    (fun () -> ignore (Replicated.run ~replicas:2 well_behaved));
  (* replicas = 0 and negative counts take the same guard *)
  (try
     ignore (Replicated.run ~replicas:0 well_behaved);
     Alcotest.fail "zero replicas accepted"
   with Invalid_argument msg ->
     check "mentions the CLI flag" true
       (String.length msg > 0
       && (let contains ~sub s =
             let n = String.length s and m = String.length sub in
             let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
             go 0
           in
           contains ~sub:"--replicas" msg && contains ~sub:"\xc2\xa76" msg)))

let test_replicated_single () =
  let report = Replicated.run ~replicas:1 ~input:"solo" well_behaved in
  check "agreed" true (report.Replicated.verdict = Replicated.Agreed);
  check_string "output" "result=42 input=solo" report.Replicated.output

(* A program whose output depends on uninitialized heap memory: with the
   replicated random fill, every replica reads different garbage. *)
let uninit_read_program =
  Program.make ~name:"uninit-read" (fun ctx ->
      let a = ctx.Program.alloc in
      let p = Allocator.malloc_exn a 64 in
      (* read without writing first *)
      Process.Out.printf ctx.Program.out "%d" (Mem.read64 a.Allocator.mem p))

let test_uninit_read_detected () =
  let report = Replicated.run ~replicas:3 uninit_read_program in
  check "detected" true (report.Replicated.verdict = Replicated.Uninit_read_detected);
  check_string "no output committed" "" report.Replicated.output

let test_uninit_read_invisible_standalone () =
  (* Stand-alone mode cannot detect it: the program just runs. *)
  let r = Replicated.run_program_once uninit_read_program in
  check "exits normally" true (r.Process.outcome = Process.Exited 0)

(* A program that crashes in some replicas: layout-dependent wild write.
   We make a replica-dependent behaviour by reading heap garbage (random
   fill) and crashing when its low bit is set. *)
let sometimes_crashing =
  Program.make ~name:"sometimes-crashes" (fun ctx ->
      let a = ctx.Program.alloc in
      let p = Allocator.malloc_exn a 8 in
      let garbage = Mem.read64 a.Allocator.mem p in
      if garbage land 1 = 1 then ignore (Mem.read8 a.Allocator.mem 0);
      Process.Out.print_string ctx.Program.out "survived")

let test_replicated_survives_minority_crash () =
  (* With 5 replicas the odds that >= 2 survive are high; find a seed
     pool where some crash and some survive, and check the voter commits
     the survivors' output. *)
  let rec try_master m =
    if m > 50 then Alcotest.fail "no mixed outcome found in 50 pools"
    else begin
      let pool = Dh_rng.Seed.create ~master:m in
      let report = Replicated.run ~replicas:5 ~seed_pool:pool sometimes_crashing in
      let crashed =
        List.length
          (List.filter
             (fun r ->
               match r.Replicated.outcome with
               | Process.Crashed _ -> true
               | _ -> false)
             report.Replicated.replicas)
      in
      if crashed > 0 && crashed < 4 then begin
        check "agreed despite crashes" true (report.Replicated.verdict = Replicated.Agreed);
        check_string "survivors' output" "survived" report.Replicated.output
      end
      else try_master (m + 1)
    end
  in
  try_master 1

let test_all_replicas_crash () =
  let always_crashes =
    Program.make ~name:"crash" (fun ctx ->
        ignore (Mem.read8 ctx.Program.alloc.Allocator.mem 0))
  in
  let report = Replicated.run ~replicas:3 always_crashes in
  check "all died" true (report.Replicated.verdict = Replicated.All_died);
  check_string "no output" "" report.Replicated.output

let test_multi_chunk_output () =
  let big_output =
    Program.make ~name:"big" (fun ctx ->
        for i = 1 to 2000 do
          Process.Out.printf ctx.Program.out "line %04d\n" i
        done)
  in
  let report = Replicated.run ~replicas:3 big_output in
  check "agreed" true (report.Replicated.verdict = Replicated.Agreed);
  check_int "full output committed" (2000 * 10) (String.length report.Replicated.output);
  check "multiple barriers" true (report.Replicated.barriers > 1)

let test_divergent_tail_killed () =
  (* A replica whose output diverges late: first chunks agree, then the
     divergent replica is voted out and the rest finish. *)
  let layout_dependent_tail =
    Program.make ~name:"tail-diverges" (fun ctx ->
        let a = ctx.Program.alloc in
        for _ = 1 to 600 do
          Process.Out.print_string ctx.Program.out "common line\n"
        done;
        (* tail depends on uninitialized garbage *)
        let p = Allocator.malloc_exn a 8 in
        Process.Out.printf ctx.Program.out "%d" (Mem.read64 a.Allocator.mem p land 0xF))
  in
  let report = Replicated.run ~replicas:3 layout_dependent_tail in
  (* The common prefix must have been committed regardless of verdict. *)
  check "prefix committed" true
    (String.length report.Replicated.output >= voter_chunk)

(* --- voted-report pins ---

   Full reports — verdict, committed output, barrier count and every
   replica's id, seed, outcome and elimination — recorded from a
   known-good build.  Any drift in seed planning, barrier settling or
   elimination order shows up here. *)

(* Crashes in replicas whose heap garbage has the low bit set — i.e. in
   roughly half of all seeds. *)
let flaky =
  Program.make ~name:"flaky" (fun ctx ->
      let a = ctx.Program.alloc in
      let p = Allocator.malloc_exn a 8 in
      let garbage = Mem.read64 a.Allocator.mem p in
      if garbage land 1 = 1 then ignore (Mem.read8 a.Allocator.mem 0);
      Process.Out.print_string ctx.Program.out "steady")

let ok = Process.Exited 0
let segv = Process.Crashed (Dh_mem.Fault.Unmapped { addr = 0; access = Dh_mem.Fault.Read })

let expect verdict output barriers replicas =
  {
    Replicated.verdict;
    output;
    barriers;
    replicas =
      List.map
        (fun (id, seed, outcome, eliminated) -> { Replicated.id; seed; outcome; eliminated })
        replicas;
    events = [];
  }

let pp_report ppf (r : Replicated.report) =
  let verdict =
    match r.Replicated.verdict with
    | Replicated.Agreed -> "agreed"
    | Replicated.Uninit_read_detected -> "uninit read detected"
    | Replicated.No_quorum -> "no quorum"
    | Replicated.All_died -> "all died"
  in
  Format.fprintf ppf "%s, output %S, %d barriers" verdict r.Replicated.output
    r.Replicated.barriers;
  List.iter
    (fun (x : Replicated.replica_report) ->
      Format.fprintf ppf "@\n  replica %d seed=%d %a%s" x.Replicated.id x.Replicated.seed
        Process.pp_outcome x.Replicated.outcome
        (match x.Replicated.eliminated with
        | None -> ""
        | Some Replicated.Died -> " died"
        | Some (Replicated.Voted_out j) -> Printf.sprintf " voted out at %d" j))
    r.Replicated.replicas

let report_t = Alcotest.testable pp_report ( = )

(* (replicas, master) -> the report of [flaky] on that seed pool. *)
let flaky_pins =
  Replicated.
    [
      ((1, 1), expect Agreed "steady" 1 [ (0, 1097491722282735498, ok, None) ]);
      ((1, 2), expect Agreed "steady" 1 [ (0, -2284564543842837636, ok, None) ]);
      ((1, 3), expect Agreed "steady" 1 [ (0, 4016640831430751736, ok, None) ]);
      ((1, 4), expect Agreed "steady" 1 [ (0, -2299433752933698255, ok, None) ]);
      ((1, 5), expect Agreed "steady" 1 [ (0, 2419891404314872272, ok, None) ]);
      ((1, 6), expect Agreed "steady" 1 [ (0, -2329965118488334125, ok, None) ]);
      ((1, 7), expect All_died "" 0 [ (0, -2027732830715113560, segv, Some Died) ]);
      ((1, 8), expect Agreed "steady" 1 [ (0, -1751237440732089038, ok, None) ]);
      ( (3, 1),
        expect Agreed "steady" 1
          [
            (0, 1097491722282735498, ok, None);
            (1, 4533873169916685415, segv, Some Died);
            (2, 506539224056949435, segv, Some Died);
          ] );
      ( (3, 2),
        expect Agreed "steady" 1
          [
            (0, -2284564543842837636, ok, None);
            (1, 916244348587400354, ok, None);
            (2, 3510497739974877218, segv, Some Died);
          ] );
      ( (3, 3),
        expect Agreed "steady" 1
          [
            (0, 4016640831430751736, ok, None);
            (1, 15007075787069225, ok, None);
            (2, 2300599727732774152, segv, Some Died);
          ] );
      ( (3, 4),
        expect Agreed "steady" 1
          [
            (0, -2299433752933698255, ok, None);
            (1, -1984743371631448016, segv, Some Died);
            (2, -4304502854145568113, ok, None);
          ] );
      ( (3, 5),
        expect Agreed "steady" 1
          [
            (0, 2419891404314872272, ok, None);
            (1, -4569129091980642568, segv, Some Died);
            (2, -4132645360422605817, segv, Some Died);
          ] );
      ( (3, 6),
        expect Agreed "steady" 1
          [
            (0, -2329965118488334125, ok, None);
            (1, 2689419059127622713, segv, Some Died);
            (2, -2138713294752435156, segv, Some Died);
          ] );
      ( (3, 7),
        expect Agreed "steady" 1
          [
            (0, -2027732830715113560, segv, Some Died);
            (1, -3370066741713296388, segv, Some Died);
            (2, 3043364412482931806, ok, None);
          ] );
      ( (3, 8),
        expect Agreed "steady" 1
          [
            (0, -1751237440732089038, ok, None);
            (1, 2065077885512546305, segv, Some Died);
            (2, -4610098650640271303, segv, Some Died);
          ] );
      ( (5, 1),
        expect Agreed "steady" 1
          [
            (0, 1097491722282735498, ok, None);
            (1, 4533873169916685415, segv, Some Died);
            (2, 506539224056949435, segv, Some Died);
            (3, -1026391283032995573, segv, Some Died);
            (4, -1028134799727807047, ok, None);
          ] );
      ( (5, 2),
        expect Agreed "steady" 1
          [
            (0, -2284564543842837636, ok, None);
            (1, 916244348587400354, ok, None);
            (2, 3510497739974877218, segv, Some Died);
            (3, -647496712838598460, segv, Some Died);
            (4, 204180845353090185, segv, Some Died);
          ] );
      ( (5, 3),
        expect Agreed "steady" 1
          [
            (0, 4016640831430751736, ok, None);
            (1, 15007075787069225, ok, None);
            (2, 2300599727732774152, segv, Some Died);
            (3, -2335602064567464785, segv, Some Died);
            (4, -1551019079331620234, ok, None);
          ] );
      ( (5, 4),
        expect Agreed "steady" 1
          [
            (0, -2299433752933698255, ok, None);
            (1, -1984743371631448016, segv, Some Died);
            (2, -4304502854145568113, ok, None);
            (3, -151738049998096226, ok, None);
            (4, -1944646736597693767, ok, None);
          ] );
      ( (5, 5),
        expect Agreed "steady" 1
          [
            (0, 2419891404314872272, ok, None);
            (1, -4569129091980642568, segv, Some Died);
            (2, -4132645360422605817, segv, Some Died);
            (3, 1832488697174800709, ok, None);
            (4, 3467252261107883461, segv, Some Died);
          ] );
      ( (5, 6),
        expect Agreed "steady" 1
          [
            (0, -2329965118488334125, ok, None);
            (1, 2689419059127622713, segv, Some Died);
            (2, -2138713294752435156, segv, Some Died);
            (3, -1732907969454073744, segv, Some Died);
            (4, -2743727795137459577, segv, Some Died);
          ] );
      ( (5, 7),
        expect Agreed "steady" 1
          [
            (0, -2027732830715113560, segv, Some Died);
            (1, -3370066741713296388, segv, Some Died);
            (2, 3043364412482931806, ok, None);
            (3, -2149962215491869013, segv, Some Died);
            (4, -4557048304730608006, ok, None);
          ] );
      ( (5, 8),
        expect Agreed "steady" 1
          [
            (0, -1751237440732089038, ok, None);
            (1, 2065077885512546305, segv, Some Died);
            (2, -4610098650640271303, segv, Some Died);
            (3, 666171942060801460, ok, None);
            (4, 1177231695481881802, segv, Some Died);
          ] );
    ]

let test_voted_report_pins () =
  let config = Config.v ~heap_size:(12 * 256 * 1024) () in
  List.iter
    (fun ((replicas, master), want) ->
      let got =
        Replicated.run ~config ~replicas ~seed_pool:(Dh_rng.Seed.create ~master) flaky
      in
      Alcotest.check report_t
        (Printf.sprintf "flaky, %d replicas, master %d" replicas master)
        want got;
      check_int "exactly the original replicas" replicas
        (List.length got.Replicated.replicas))
    flaky_pins;
  Alcotest.check report_t "uninit read, 3 replicas"
    Replicated.(
      expect Uninit_read_detected "" 1
        [
          (0, 1097491722282735498, ok, Some (Voted_out 0));
          (1, 4533873169916685415, ok, Some (Voted_out 0));
          (2, 506539224056949435, ok, Some (Voted_out 0));
        ])
    (Replicated.run ~replicas:3 uninit_read_program)

(* --- stand-alone runtime --- *)

let test_standalone_runs () =
  let r = Replicated.run_program_once ~input:"in" well_behaved in
  check "exit" true (r.Process.outcome = Process.Exited 0);
  check_string "output" "result=42 input=in" r.Process.output

let test_standalone_seed_changes_layout () =
  let layout_probe =
    Program.make ~name:"probe" (fun ctx ->
        let p = Allocator.malloc_exn ctx.Program.alloc 64 in
        Process.Out.printf ctx.Program.out "%d" p)
  in
  let r1 = Replicated.run_program_once ~config:(Config.v ~seed:1 ()) layout_probe in
  let r2 = Replicated.run_program_once ~config:(Config.v ~seed:2 ()) layout_probe in
  check "different placements" false (String.equal r1.Process.output r2.Process.output)

let suite =
  [
    Alcotest.test_case "vote unanimous" `Quick test_vote_unanimous;
    Alcotest.test_case "vote single" `Quick test_vote_single_replica;
    Alcotest.test_case "vote majority" `Quick test_vote_majority_kills_minority;
    Alcotest.test_case "vote no quorum" `Quick test_vote_no_quorum_all_differ;
    Alcotest.test_case "vote two disagree" `Quick test_vote_two_disagree;
    Alcotest.test_case "vote empty" `Quick test_vote_empty_rejected;
    Alcotest.test_case "chunks of output" `Quick test_chunks_of_output;
    Alcotest.test_case "replicated agreement" `Quick test_replicated_agreement;
    Alcotest.test_case "replicated distinct seeds" `Quick test_replicated_distinct_seeds;
    Alcotest.test_case "replicated rejects k=2" `Quick test_replicated_rejects_two;
    Alcotest.test_case "replicated single" `Quick test_replicated_single;
    Alcotest.test_case "uninit read detected" `Quick test_uninit_read_detected;
    Alcotest.test_case "uninit read standalone" `Quick test_uninit_read_invisible_standalone;
    Alcotest.test_case "minority crash survived" `Quick test_replicated_survives_minority_crash;
    Alcotest.test_case "all replicas crash" `Quick test_all_replicas_crash;
    Alcotest.test_case "multi-chunk output" `Quick test_multi_chunk_output;
    Alcotest.test_case "divergent tail" `Quick test_divergent_tail_killed;
    Alcotest.test_case "voted report pins" `Quick test_voted_report_pins;
    Alcotest.test_case "standalone runs" `Quick test_standalone_runs;
    Alcotest.test_case "standalone seed layout" `Quick test_standalone_seed_changes_layout;
  ]
