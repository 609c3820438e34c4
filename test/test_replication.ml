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

let test_chunks_of_output () =
  let big = String.make (Voter.chunk_size + 100) 'x' in
  (match Voter.chunks_of_output ~crashed:false big with
  | [ full; partial ] ->
    check_int "full chunk" Voter.chunk_size (String.length full);
    check_int "partial" 100 (String.length partial)
  | _ -> Alcotest.fail "expected two chunks");
  (* A crashed replica loses its trailing partial chunk. *)
  (match Voter.chunks_of_output ~crashed:true big with
  | [ full ] -> check_int "only the full chunk" Voter.chunk_size (String.length full)
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
    (String.length report.Replicated.output >= Voter.chunk_size)

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
  let r1 = Replicated.run_program_once ~seed:1 layout_probe in
  let r2 = Replicated.run_program_once ~seed:2 layout_probe in
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
    Alcotest.test_case "standalone runs" `Quick test_standalone_runs;
    Alcotest.test_case "standalone seed layout" `Quick test_standalone_seed_changes_layout;
  ]
