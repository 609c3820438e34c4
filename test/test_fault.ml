(* Tests for the fault injector and the campaign runner (§7.3.1). *)

module Mem = Dh_mem.Mem
module Allocator = Dh_alloc.Allocator
module Trace = Dh_alloc.Trace
module Program = Dh_alloc.Program
open Dh_fault

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fresh_freelist () =
  let mem = Mem.create () in
  Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create mem)

let fresh_diehard ?(seed = 1) () =
  let mem = Mem.create () in
  let config = Diehard.Config.v ~heap_size:(12 * 256 * 1024) ~seed () in
  Diehard.Heap.allocator (Diehard.Heap.create ~config mem)

(* --- injector mechanics --- *)

(* [a], logging every request the injector passes down to it: each
   malloc's size and each free's address, newest first.  What the
   injector did is read from these, as the allocator beneath it sees it. *)
let spy (a : Allocator.t) =
  let sizes = ref [] and frees = ref [] in
  let malloc sz =
    sizes := sz :: !sizes;
    a.Allocator.malloc sz
  in
  let free p =
    frees := p :: !frees;
    a.Allocator.free p
  in
  (sizes, frees, { a with Allocator.malloc; free })

let count x l = List.length (List.filter (( = ) x) l)

let test_nothing_spec_is_identity () =
  let a = fresh_freelist () in
  let sizes, frees, spied = spy a in
  let wrapped = Injector.wrap Injector.nothing ~log:[] spied in
  let p = Allocator.malloc_exn wrapped 64 in
  wrapped.Allocator.free p;
  check "no underflows" true (!sizes = [ 64 ]);
  check "no danglings" true (!frees = [ p ]);
  check_int "forwarded" 1 a.Allocator.stats.Dh_alloc.Stats.frees

let test_underflow_shrinks_allocation () =
  let a = fresh_freelist () in
  let spec =
    { Injector.nothing with
      Injector.underflow_rate = 1.0;
      underflow_bytes = 4;
      underflow_min_size = 32
    }
  in
  let sizes, _, spied = spy a in
  let wrapped = Injector.wrap spec ~log:[] spied in
  (* 68 bytes: the freelist rounds to 8, so a 4-byte shave crosses a
     rounding boundary and really shrinks the reservation (the same
     rounding is why many of the paper's 4-byte underflows are absorbed
     harmlessly by DieHard's power-of-two classes). *)
  let p = Allocator.malloc_exn wrapped 68 in
  check "every big alloc underflowed" true (!sizes = [ 64 ]);
  (match a.Allocator.find_object p with
  | Some { Allocator.size; _ } -> check "reserved less than asked" true (size < 68)
  | None -> Alcotest.fail "object missing");
  (* below the minimum size: untouched *)
  ignore (Allocator.malloc_exn wrapped 16);
  check "small allocs spared" true (!sizes = [ 16; 64 ])

let test_underflow_rate_statistical () =
  let a = fresh_diehard () in
  let spec =
    { Injector.nothing with
      Injector.underflow_rate = 0.3;
      underflow_bytes = 4;
      underflow_min_size = 8;
      seed = 42
    }
  in
  let sizes, _, spied = spy a in
  let wrapped = Injector.wrap spec ~log:[] spied in
  for _ = 1 to 2000 do
    match wrapped.Allocator.malloc 64 with
    | Some p -> wrapped.Allocator.free p
    | None -> ()
  done;
  check_int "every request passed down" 2000 (List.length !sizes);
  let rate = float_of_int (count 60 !sizes) /. 2000. in
  check (Printf.sprintf "rate %.3f near 0.3" rate) true (abs_float (rate -. 0.3) < 0.05)

let test_dangling_premature_free_and_swallow () =
  (* Object allocated at time 1, freed at time 5; distance 3 means the
     injected free fires at allocation-clock 2, and the program's own
     free must be swallowed. *)
  let a = fresh_freelist () in
  let log = [ { Trace.alloc_time = 1; free_time = 5; size = 64 } ] in
  let spec =
    { Injector.nothing with Injector.dangling_rate = 1.0; dangling_distance = 3 }
  in
  let _, frees, spied = spy a in
  let wrapped = Injector.wrap spec ~log spied in
  let p1 = Allocator.malloc_exn wrapped 64 in
  let _p2 = Allocator.malloc_exn wrapped 64 in
  (* clock = 2: injection fired, p1 was freed under the hood *)
  check "injected" true (!frees = [ p1 ]);
  check_int "underlying free happened" 1 a.Allocator.stats.Dh_alloc.Stats.frees;
  let _p3 = Allocator.malloc_exn wrapped 64 in
  let _p4 = Allocator.malloc_exn wrapped 64 in
  let _p5 = Allocator.malloc_exn wrapped 64 in
  (* program's own free of p1: swallowed *)
  wrapped.Allocator.free p1;
  check_int "actual free ignored" 1 a.Allocator.stats.Dh_alloc.Stats.frees;
  (* freeing other objects still works *)
  wrapped.Allocator.free _p2;
  check_int "other frees pass" 2 a.Allocator.stats.Dh_alloc.Stats.frees

let test_dangling_causes_reuse_under_freelist () =
  (* The LIFO freelist hands the prematurely-freed chunk straight to the
     next allocation: the hallmark failure DieHard avoids. *)
  let a = fresh_freelist () in
  let log = [ { Trace.alloc_time = 1; free_time = 10; size = 64 } ] in
  let spec =
    { Injector.nothing with Injector.dangling_rate = 1.0; dangling_distance = 8 }
  in
  let wrapped = Injector.wrap spec ~log a in
  let p1 = Allocator.malloc_exn wrapped 64 in
  let p2 = Allocator.malloc_exn wrapped 64 in
  (* clock reached 2 = 10-8: p1 freed; next malloc reuses it *)
  ignore p2;
  let p3 = Allocator.malloc_exn wrapped 64 in
  check_int "prematurely freed chunk reused immediately" p1 p3

let test_dangling_distance_clamped_to_alloc () =
  (* Lifetime shorter than the distance: the object is freed right at its
     own allocation, not before it exists. *)
  let a = fresh_freelist () in
  let log = [ { Trace.alloc_time = 3; free_time = 5; size = 64 } ] in
  let spec =
    { Injector.nothing with Injector.dangling_rate = 1.0; dangling_distance = 100 }
  in
  let _, frees, spied = spy a in
  let wrapped = Injector.wrap spec ~log spied in
  ignore (Allocator.malloc_exn wrapped 64);
  ignore (Allocator.malloc_exn wrapped 64);
  check "nothing yet" true (!frees = []);
  let p3 = Allocator.malloc_exn wrapped 64 in
  check "fired at its own allocation" true (!frees = [ p3 ])

let test_double_free_injection () =
  let a = fresh_diehard () in
  let spec = { Injector.nothing with Injector.double_free_rate = 1.0 } in
  let _, frees, spied = spy a in
  let wrapped = Injector.wrap spec ~log:[] spied in
  let p = Allocator.malloc_exn wrapped 64 in
  wrapped.Allocator.free p;
  check "double free injected" true (!frees = [ p; p ]);
  (* DieHard ignored the second free *)
  check_int "diehard ignored it" 1 a.Allocator.stats.Dh_alloc.Stats.ignored_frees

let test_invalid_free_injection () =
  let a = fresh_diehard () in
  let spec = { Injector.nothing with Injector.invalid_free_rate = 1.0 } in
  let _, frees, spied = spy a in
  let wrapped = Injector.wrap spec ~log:[] spied in
  let p = Allocator.malloc_exn wrapped 64 in
  wrapped.Allocator.free p;
  (match !frees with
  | [ q; p' ] when p' = p -> check "invalid free injected" true (q > p && q < p + 8)
  | _ -> Alcotest.fail "expected the real free, then one interior pointer");
  check "diehard ignored it" true (a.Allocator.stats.Dh_alloc.Stats.ignored_frees >= 1)

(* --- campaign --- *)

(* A tiny deterministic program with the dangling-vulnerable shape. *)
let list_program =
  Dh_lang.Interp.program_of_source ~name:"list"
    {|
fn main() {
  var head = 0;
  var acc = 0;
  for (var i = 0; i < 200; i = i + 1) {
    var n = malloc(16);
    n[0] = i * 13 + 1;
    n[1] = head;
    head = n;
    if (i % 4 == 3) {
      var t = head;
      acc = (acc + t[0]) % 997;
      head = t[1];
      free(t);
    }
  }
  while (head) { var t = head; acc = (acc + t[0]) % 997; head = t[1]; free(t); }
  print_int(acc);
}
|}

let test_campaign_clean_spec_all_correct () =
  let tally =
    Campaign.run_exn ~trials:5 ~spec:Injector.nothing
      ~make_alloc:(fun ~trial ->
        ignore trial;
        fresh_freelist ())
      list_program
  in
  check_int "all correct without injection" 5 tally.Campaign.correct

let test_campaign_dangling_freelist_fails () =
  let spec = { Injector.paper_dangling with Injector.dangling_distance = 6 } in
  let tally =
    Campaign.run_exn ~trials:10 ~spec
      ~make_alloc:(fun ~trial ->
        ignore trial;
        fresh_freelist ())
      list_program
  in
  (* LIFO reuse overwrites prematurely-freed list cells: most runs must
     go wrong (crash or wrong output). *)
  check
    (Format.asprintf "freelist mostly fails (%a)" Campaign.pp_tally tally)
    true
    (tally.Campaign.correct <= 3)

let test_campaign_dangling_diehard_survives () =
  let spec = { Injector.paper_dangling with Injector.dangling_distance = 6 } in
  let tally =
    Campaign.run_exn ~trials:10 ~spec
      ~make_alloc:(fun ~trial -> fresh_diehard ~seed:(trial + 1) ())
      list_program
  in
  check
    (Format.asprintf "diehard mostly survives (%a)" Campaign.pp_tally tally)
    true
    (tally.Campaign.correct >= 8)

let test_campaign_classification () =
  let reference = "expected" in
  let mk outcome output = { Dh_mem.Process.outcome; output } in
  check "correct" true
    (Campaign.classify ~reference (mk (Dh_mem.Process.Exited 0) "expected")
    = Campaign.Correct);
  check "wrong output" true
    (Campaign.classify ~reference (mk (Dh_mem.Process.Exited 0) "other")
    = Campaign.Wrong_output);
  check "crash" true
    (Campaign.classify ~reference
       (mk (Dh_mem.Process.Crashed (Dh_mem.Fault.Unmapped { addr = 0; access = Dh_mem.Fault.Read }))
          "")
    = Campaign.Crashed);
  check "timeout" true
    (Campaign.classify ~reference (mk Dh_mem.Process.Timeout "") = Campaign.Timed_out);
  check "abort" true
    (Campaign.classify ~reference (mk (Dh_mem.Process.Aborted "x") "") = Campaign.Aborted)

let test_campaign_trials_differ () =
  (* Different trials get different injection seeds, so outcomes can
     differ — check the runs list length and that the injector seeds
     produce at least some variation in a borderline setup. *)
  let spec =
    { Injector.nothing with Injector.dangling_rate = 0.15; dangling_distance = 4 }
  in
  let tally =
    Campaign.run_exn ~trials:10 ~spec
      ~make_alloc:(fun ~trial ->
        ignore trial;
        fresh_freelist ())
      list_program
  in
  check_int "ten runs recorded" 10 (List.length tally.Campaign.runs);
  check_int "tally sums to trials" 10
    (tally.Campaign.correct + tally.Campaign.wrong_output + tally.Campaign.crashed
   + tally.Campaign.aborted + tally.Campaign.timed_out)

let test_campaign_tracing_failure_is_error () =
  (* A program that always crashes cannot be traced: the campaign must
     report the failure as a value, not tear the driver down. *)
  let crasher =
    Dh_lang.Interp.program_of_source ~name:"crasher"
      {|fn main() { var p = 0; p[0] = 1; }|}
  in
  match
    Campaign.run ~trials:3 ~spec:Injector.nothing
      ~make_alloc:(fun ~trial ->
        ignore trial;
        fresh_freelist ())
      crasher
  with
  | Ok _ -> Alcotest.fail "campaign should not trace a crashing program"
  | Error (Campaign.Tracing_failed { outcome; _ }) ->
    check "classified as crash" true
      (match outcome with Dh_mem.Process.Crashed _ -> true | _ -> false)

let suite =
  [
    Alcotest.test_case "campaign: tracing failure -> Error" `Quick
      test_campaign_tracing_failure_is_error;
    Alcotest.test_case "identity wrapper" `Quick test_nothing_spec_is_identity;
    Alcotest.test_case "underflow shrinks" `Quick test_underflow_shrinks_allocation;
    Alcotest.test_case "underflow rate" `Quick test_underflow_rate_statistical;
    Alcotest.test_case "dangling fire+swallow" `Quick test_dangling_premature_free_and_swallow;
    Alcotest.test_case "dangling LIFO reuse" `Quick test_dangling_causes_reuse_under_freelist;
    Alcotest.test_case "dangling clamped" `Quick test_dangling_distance_clamped_to_alloc;
    Alcotest.test_case "double-free injection" `Quick test_double_free_injection;
    Alcotest.test_case "invalid-free injection" `Quick test_invalid_free_injection;
    Alcotest.test_case "campaign clean" `Quick test_campaign_clean_spec_all_correct;
    Alcotest.test_case "campaign: freelist fails" `Quick test_campaign_dangling_freelist_fails;
    Alcotest.test_case "campaign: diehard survives" `Quick test_campaign_dangling_diehard_survives;
    Alcotest.test_case "campaign classification" `Quick test_campaign_classification;
    Alcotest.test_case "campaign bookkeeping" `Quick test_campaign_trials_differ;
  ]
