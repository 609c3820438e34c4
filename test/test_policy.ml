(* Tests for access-policy mediation (raw / fail-stop / oblivious) and the
   tracing allocator wrapper. *)

open Dh_alloc
module Mem = Dh_mem.Mem
module Process = Dh_mem.Process

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_fl kind =
  let mem = Mem.create () in
  let fl = Freelist.create mem in
  let p = Policy.make ~kind (Freelist.allocator fl) in
  (mem, Policy.allocator p, p)

(* --- raw --- *)

let test_raw_passthrough () =
  let _, a, p = make_fl Policy.Raw in
  let ptr = Allocator.malloc_exn a 64 in
  Policy.store p ptr 99;
  check_int "raw store/load" 99 (Policy.load p ptr)

let test_raw_out_of_bounds_corrupts () =
  (* Raw = the C model: an overflow lands wherever it lands. *)
  let _, a, p = make_fl Policy.Raw in
  let ptr = Allocator.malloc_exn a 8 in
  Policy.store p (ptr + 8) 0xBAD;  (* one word past the object *)
  check_int "silent corruption" 0xBAD (Policy.load p (ptr + 8))

(* --- fail-stop --- *)

let test_fail_stop_allows_valid () =
  let _, a, p = make_fl Policy.Fail_stop in
  let ptr = Allocator.malloc_exn a 64 in
  Policy.store p ptr 1;
  Policy.store p (ptr + 56) 2;
  check_int "in-bounds fine" 1 (Policy.load p ptr);
  Policy.store8 p (ptr + 63) 7;
  check_int "last byte fine" 7 (Policy.load8 p (ptr + 63))

let expect_abort f =
  match f () with
  | exception Process.Abort _ -> ()
  | _ -> Alcotest.fail "expected fail-stop abort"

let test_fail_stop_aborts_overflow () =
  let _, a, p = make_fl Policy.Fail_stop in
  let ptr = Allocator.malloc_exn a 64 in
  (match a.Allocator.find_object ptr with
  | Some { Allocator.size; _ } ->
    expect_abort (fun () -> Policy.store8 p (ptr + size) 1)
  | None -> Alcotest.fail "object should exist");
  expect_abort (fun () -> Policy.store p (ptr + 60) 1)
  (* word write with 4 bytes out of bounds *)

let test_fail_stop_aborts_use_after_free () =
  let _, a, p = make_fl Policy.Fail_stop in
  let ptr = Allocator.malloc_exn a 64 in
  a.Allocator.free ptr;
  expect_abort (fun () -> ignore (Policy.load p ptr))

let test_fail_stop_allows_non_heap () =
  (* Addresses outside the allocator's arena (application-mapped
     globals) are not policed. *)
  let mem, a, _ = make_fl Policy.Fail_stop in
  let p = Policy.make ~kind:Policy.Fail_stop a in
  let globals = Mem.mmap mem 4096 in
  Policy.store p globals 5;
  check_int "globals accessible" 5 (Policy.load p globals)

(* --- oblivious --- *)

let test_oblivious_drops () =
  let mem, a, p = make_fl Policy.Oblivious in
  let ptr = Allocator.malloc_exn a 64 in
  (* ptr+64 is the next chunk's header: out of the object's bounds. *)
  let before = Mem.read64 mem (ptr + 64) in
  Policy.store p (ptr + 64) 0xBAD;
  check_int "write dropped" before (Mem.read64 mem (ptr + 64))

let test_oblivious_manufactures_reads () =
  let _, a, p = make_fl Policy.Oblivious in
  let ptr = Allocator.malloc_exn a 64 in
  let v1 = Policy.load p (ptr + 64) in
  let v2 = Policy.load p (ptr + 64) in
  let v3 = Policy.load p (ptr + 64) in
  check "sequence 0,1,2" true (v1 = 0 && v2 = 1 && v3 = 2);
  check_int "counted: the cycle wraps after three" 0 (Policy.load p (ptr + 64))

let test_oblivious_never_faults () =
  let _, _, p = make_fl Policy.Oblivious in
  (* Wild unmapped accesses: no fault, manufactured/dropped instead. *)
  ignore (Policy.load p 0xDEAD0000);
  Policy.store p 0xDEAD0000 1;
  check "survived wild accesses" true true

let test_oblivious_valid_accesses_pass () =
  let _, a, p = make_fl Policy.Oblivious in
  let ptr = Allocator.malloc_exn a 64 in
  Policy.store p ptr 42;
  check_int "valid access normal" 42 (Policy.load p ptr)

(* --- trace --- *)

let test_trace_records_lifetimes () =
  let mem = Mem.create () in
  let fl = Freelist.create mem in
  let tracer, a = Trace.wrap (Freelist.allocator fl) in
  let p1 = Allocator.malloc_exn a 16 in
  let _p2 = Allocator.malloc_exn a 16 in
  let p3 = Allocator.malloc_exn a 16 in
  a.Allocator.free p1;
  ignore (Allocator.malloc_exn a 16);
  a.Allocator.free p3;
  check_int "clock" 4 (Trace.clock tracer);
  check "objects 2 and 4 live" true
    (List.map (fun n -> Trace.live_object tracer n <> None) [ 1; 2; 3; 4 ]
    = [ false; true; false; true ]);
  let lifetimes = Trace.lifetimes tracer in
  check_int "two freed objects" 2 (List.length lifetimes);
  (match lifetimes with
  | [ l1; l3 ] ->
    check_int "first alloc time" 1 l1.Trace.alloc_time;
    check_int "freed at clock 3" 3 l1.Trace.free_time;
    check_int "third object" 3 l3.Trace.alloc_time;
    check_int "freed at clock 4" 4 l3.Trace.free_time;
    check_int "size recorded" 16 l1.Trace.size
  | _ -> Alcotest.fail "expected two lifetimes sorted by alloc time")

let test_trace_forwards () =
  let mem = Mem.create () in
  let fl = Freelist.create mem in
  let _, a = Trace.wrap (Freelist.allocator fl) in
  let p = Allocator.malloc_exn a 64 in
  Mem.write64 mem p 1;
  a.Allocator.free p;
  let q = Allocator.malloc_exn a 64 in
  check_int "wrapped allocator still LIFO-reuses" p q

let test_trace_ignores_foreign_frees () =
  let mem = Mem.create () in
  let fl = Freelist.create mem in
  let tracer, a = Trace.wrap (Freelist.allocator fl) in
  a.Allocator.free 0;
  check_int "no spurious allocation" 0 (Trace.clock tracer);
  check_int "no spurious lifetime" 0 (List.length (Trace.lifetimes tracer))

let suite =
  [
    Alcotest.test_case "raw passthrough" `Quick test_raw_passthrough;
    Alcotest.test_case "raw corruption" `Quick test_raw_out_of_bounds_corrupts;
    Alcotest.test_case "fail-stop valid ok" `Quick test_fail_stop_allows_valid;
    Alcotest.test_case "fail-stop overflow aborts" `Quick test_fail_stop_aborts_overflow;
    Alcotest.test_case "fail-stop UAF aborts" `Quick test_fail_stop_aborts_use_after_free;
    Alcotest.test_case "fail-stop non-heap ok" `Quick test_fail_stop_allows_non_heap;
    Alcotest.test_case "oblivious drops writes" `Quick test_oblivious_drops;
    Alcotest.test_case "oblivious manufactures reads" `Quick test_oblivious_manufactures_reads;
    Alcotest.test_case "oblivious never faults" `Quick test_oblivious_never_faults;
    Alcotest.test_case "oblivious valid ok" `Quick test_oblivious_valid_accesses_pass;
    Alcotest.test_case "trace lifetimes" `Quick test_trace_records_lifetimes;
    Alcotest.test_case "trace forwards" `Quick test_trace_forwards;
    Alcotest.test_case "trace foreign frees" `Quick test_trace_ignores_foreign_frees;
  ]
