(* Tests for the simulated address space: mapping, protection, faulting
   accesses, and the simulated-process outcome classification. *)

open Dh_mem

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let expect_fault f =
  match f () with
  | exception Fault.Error _ -> ()
  | _ -> Alcotest.fail "expected a memory fault"

(* --- mapping --- *)

let test_mmap_returns_aligned_base () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 100 in
  check_int "page aligned" 0 (a mod Mem.page_size);
  check "nonzero (not NULL)" true (a <> 0)

let test_mmap_rounds_to_pages () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 1 in
  (* The whole first page must be accessible... *)
  Mem.write8 mem (a + Mem.page_size - 1) 0xAB;
  check_int "last byte of page" 0xAB (Mem.read8 mem (a + Mem.page_size - 1));
  (* ...and the byte after it must not be. *)
  expect_fault (fun () -> Mem.read8 mem (a + Mem.page_size))

let test_segments_disjoint () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 8192 and b = Mem.mmap mem 8192 in
  check "segments do not overlap" true (b >= a + 8192 || a >= b + 8192)

let test_hole_between_segments () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  let _b = Mem.mmap mem 4096 in
  (* Running one byte off the end of [a] must fault, not land in [b]. *)
  expect_fault (fun () -> Mem.write8 mem (a + 4096) 1)

let test_munmap () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write8 mem a 5;
  Mem.munmap mem a;
  expect_fault (fun () -> Mem.read8 mem a);
  check "no longer mapped" false (Mem.is_mapped mem a)

let test_munmap_bad_base () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 8192 in
  expect_fault (fun () -> Mem.munmap mem (a + 4096))

let test_null_never_mapped () =
  let mem = Mem.create () in
  ignore (Mem.mmap mem 4096);
  check "NULL unmapped" false (Mem.is_mapped mem 0);
  expect_fault (fun () -> Mem.read8 mem 0)

let test_segment_of () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 8192 in
  (match Mem.segment_of mem (a + 5000) with
  | Some (base, len) ->
    check_int "segment base" a base;
    check_int "segment len" 8192 len
  | None -> Alcotest.fail "address should be mapped");
  check "outside" true (Mem.segment_of mem (a + 8192) = None)

let test_mapped_bytes () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  ignore (Mem.mmap mem 8192);
  check_int "mapped bytes" (4096 + 8192) (Mem.mapped_bytes mem);
  Mem.munmap mem a;
  check_int "after munmap" 8192 (Mem.mapped_bytes mem)

(* --- protection --- *)

let test_guard_page_faults () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (3 * 4096) in
  Mem.protect mem ~addr:a ~len:4096 Mem.No_access;
  expect_fault (fun () -> Mem.read8 mem a);
  expect_fault (fun () -> Mem.write8 mem (a + 100) 1);
  (* the page after the guard is fine *)
  Mem.write8 mem (a + 4096) 1;
  check_int "adjacent page ok" 1 (Mem.read8 mem (a + 4096))

let test_read_only () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write8 mem a 42;
  Mem.protect mem ~addr:a ~len:4096 Mem.Read_only;
  check_int "reads allowed" 42 (Mem.read8 mem a);
  expect_fault (fun () -> Mem.write8 mem a 1)

let test_word_access_across_guard_faults () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (2 * 4096) in
  Mem.protect mem ~addr:(a + 4096) ~len:4096 Mem.No_access;
  (* A word write straddling the guard boundary must fault. *)
  expect_fault (fun () -> Mem.write64 mem (a + 4096 - 4) 0xDEADBEEF)

(* --- access --- *)

let test_byte_roundtrip () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  for i = 0 to 255 do
    Mem.write8 mem (a + i) i
  done;
  for i = 0 to 255 do
    check_int "byte roundtrip" i (Mem.read8 mem (a + i))
  done

let test_byte_truncation () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write8 mem a 0x1FF;
  check_int "write8 truncates to 8 bits" 0xFF (Mem.read8 mem a)

let test_word_roundtrip () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  let values = [ 0; 1; 0xDEADBEEF; max_int; min_int; -1; 0x0123456789ABCDE ] in
  List.iteri
    (fun i v ->
      Mem.write64 mem (a + (8 * i)) v;
      check_int "word roundtrip" v (Mem.read64 mem (a + (8 * i))))
    values

let test_word_little_endian () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write64 mem a 0x0102030405060708;
  check_int "LSB first" 0x08 (Mem.read8 mem a);
  check_int "MSB last" 0x01 (Mem.read8 mem (a + 7))

let test_unaligned_word () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write64 mem (a + 3) 0x1122334455667788;
  check_int "unaligned roundtrip" 0x1122334455667788 (Mem.read64 mem (a + 3))

let test_fresh_memory_zeroed () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  check_int "zero filled" 0 (Mem.read64 mem a);
  check_int "zero filled end" 0 (Mem.read8 mem (a + 4095))

let test_bytes_roundtrip () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write_bytes mem ~addr:a "hello, heap";
  check_string "string roundtrip" "hello, heap" (Mem.read_bytes mem ~addr:a ~len:11)

let test_fill () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.fill mem ~addr:a ~len:16 'x';
  check_string "filled" (String.make 16 'x') (Mem.read_bytes mem ~addr:a ~len:16)

let test_fill_random_differs_by_seed () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 and b = Mem.mmap mem 4096 in
  Mem.fill_random mem ~addr:a ~len:256 (Dh_rng.Mwc.create ~seed:1);
  Mem.fill_random mem ~addr:b ~len:256 (Dh_rng.Mwc.create ~seed:2);
  check "different random fills" false
    (String.equal (Mem.read_bytes mem ~addr:a ~len:256) (Mem.read_bytes mem ~addr:b ~len:256))

let test_cstring () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write_bytes mem ~addr:a "zzzzzzzz";
  let s0 = Mem.stats mem in
  Mem.write_cstring mem ~addr:a "abc";
  check_int "string plus NUL stored" 4 Mem.((stats mem).writes - s0.writes);
  check_string "NUL after the string, later bytes kept" "abc\000zzzz"
    (Mem.read_bytes mem ~addr:a ~len:8)

let test_stats_counting () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  let s0 = Mem.stats mem in
  Mem.write8 mem a 1;
  ignore (Mem.read8 mem a);
  ignore (Mem.read64 mem a);
  let s1 = Mem.stats mem in
  check_int "writes counted" 1 (s1.Mem.writes - s0.Mem.writes);
  check_int "reads counted" 2 (s1.Mem.reads - s0.Mem.reads);
  check_int "mmaps counted" 1 s1.Mem.mmaps

let test_touched_pages () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (4 * 4096) in
  check_int "nothing touched" 0 (Mem.touched_pages mem);
  Mem.write8 mem a 1;
  Mem.write8 mem (a + 1) 1;
  check_int "one page" 1 (Mem.touched_pages mem);
  Mem.write8 mem (a + (3 * 4096)) 1;
  check_int "two pages" 2 (Mem.touched_pages mem)

(* --- process --- *)

let test_process_exit () =
  let r = Process.run (fun out -> Process.Out.print_string out "done") in
  check "exited" true (r.Process.outcome = Process.Exited 0);
  check_string "output captured" "done" r.Process.output

let test_process_exit_code () =
  let r =
    Process.run (fun out ->
        Process.Out.print_string out "partial";
        raise (Process.Exit_program 3))
  in
  check "exit code" true (r.Process.outcome = Process.Exited 3);
  check_string "output kept" "partial" r.Process.output

let test_process_crash () =
  let mem = Mem.create () in
  let r =
    Process.run (fun out ->
        Process.Out.print_string out "before";
        ignore (Mem.read8 mem 0x999999);
        Process.Out.print_string out "after")
  in
  (match r.Process.outcome with
  | Process.Crashed (Fault.Unmapped _) -> ()
  | _ -> Alcotest.fail "expected a crash");
  check_string "output up to the crash" "before" r.Process.output

let test_process_abort () =
  let r = Process.run (fun _ -> raise (Process.Abort "bounds")) in
  check "aborted" true (r.Process.outcome = Process.Aborted "bounds")

let test_process_timeout () =
  let r =
    Process.run (fun _ ->
        let fuel = Process.Fuel.create ~budget:100 in
        while true do
          Process.Fuel.burn fuel
        done)
  in
  check "timeout" true (r.Process.outcome = Process.Timeout)

let test_fuel_accounting () =
  let fuel = Process.Fuel.create ~budget:3 in
  Process.Fuel.burn fuel;
  Process.Fuel.burn fuel;
  check "one left" true (Process.Fuel.remaining fuel = Some 1);
  Process.Fuel.burn fuel;
  Alcotest.check_raises "exhausted" Process.Out_of_fuel (fun () -> Process.Fuel.burn fuel)

(* --- qcheck properties --- *)

let prop_word_roundtrip =
  QCheck.Test.make ~name:"write64/read64 roundtrip at any offset" ~count:300
    QCheck.(pair int (int_bound 4080))
    (fun (v, off) ->
      let mem = Mem.create () in
      let a = Mem.mmap mem 4096 in
      Mem.write64 mem (a + off) v;
      Mem.read64 mem (a + off) = v)

(* --- the offending address of each fault --- *)

let fault_of f =
  match f () with
  | exception Fault.Error e -> e
  | _ -> Alcotest.fail "expected a memory fault"

let test_fault_addr_unmapped () =
  let mem = Mem.create () in
  let f = fault_of (fun () -> Mem.read8 mem 0x1234) in
  check "Unmapped" true (match f with Fault.Unmapped _ -> true | _ -> false);
  check_int "the read address" 0x1234 (Fault.addr f)

let test_fault_addr_protection () =
  let mem = Mem.create () in
  let a = Mem.mmap mem Mem.page_size in
  Mem.protect mem ~addr:a ~len:Mem.page_size Mem.No_access;
  let f = fault_of (fun () -> Mem.write8 mem (a + 5) 1) in
  check "Protection" true (match f with Fault.Protection _ -> true | _ -> false);
  check_int "the write address" (a + 5) (Fault.addr f)

let test_fault_addr_unmap_unmapped () =
  let mem = Mem.create () in
  let a = Mem.mmap mem Mem.page_size in
  let f = fault_of (fun () -> Mem.munmap mem (a + 8)) in
  check "Unmap_unmapped" true (match f with Fault.Unmap_unmapped _ -> true | _ -> false);
  check_int "the munmap argument" (a + 8) (Fault.addr f)

let test_fault_addr_protect_unmapped () =
  let mem = Mem.create () in
  let a = Mem.mmap mem Mem.page_size in
  let f =
    fault_of (fun () -> Mem.protect mem ~addr:a ~len:(2 * Mem.page_size) Mem.Read_only)
  in
  check "Protect_unmapped" true
    (match f with Fault.Protect_unmapped _ -> true | _ -> false);
  check_int "the first byte past the segment, not the range start"
    (a + Mem.page_size) (Fault.addr f)

(* --- the page table's upkeep --- *)

(* [f] faults [Unmapped] at exactly [addr]. *)
let expect_unmapped what addr f =
  let f = fault_of f in
  check (what ^ ": Unmapped") true (match f with Fault.Unmapped _ -> true | _ -> false);
  check_int (what ^ ": the address") addr (Fault.addr f)

let test_table_unmapped_addresses () =
  let mem = Mem.create () in
  let a = Mem.mmap mem Mem.page_size in
  let b = Mem.mmap mem (3 * Mem.page_size) in
  let c = Mem.mmap mem Mem.page_size in
  (* The next mapping would start one hole page past [c]. *)
  let next_base = c + (2 * Mem.page_size) in
  expect_unmapped "hole page after a segment" (a + Mem.page_size + 17) (fun () ->
      Mem.read8 mem (a + Mem.page_size + 17));
  expect_unmapped "negative address" (-8) (fun () -> Mem.read64 mem (-8));
  expect_unmapped "next_base" next_base (fun () -> Mem.write8 mem next_base 1);
  expect_unmapped "far past next_base" (next_base + (1 lsl 40)) (fun () ->
      Mem.read8 mem (next_base + (1 lsl 40)));
  Mem.munmap mem b;
  expect_unmapped "middle page of an unmapped segment" (b + Mem.page_size + 3) (fun () ->
      Mem.write64 mem (b + Mem.page_size + 3) 1);
  check "neighbours stay mapped" true (Mem.is_mapped mem a && Mem.is_mapped mem c);
  Mem.write64 mem c 9;
  check_int "c still reads" 9 (Mem.read64 mem c)

let test_table_grows () =
  (* Enough segments to double the table several times; each one still
     reaches its own bytes. *)
  let mem = Mem.create () in
  let len i = (1 + (i mod 3)) * Mem.page_size in
  let bases = Array.init 200 (fun i -> Mem.mmap mem (len i)) in
  Array.iteri (fun i a -> Mem.write64 mem (a + len i - 8) i) bases;
  Array.iteri (fun i a -> check_int "own segment" i (Mem.read64 mem (a + len i - 8))) bases;
  check_int "mapped bytes" (Array.fold_left ( + ) 0 (Array.init 200 len)) (Mem.mapped_bytes mem)

let test_table_rewind_born_then_reused () =
  let mem = Mem.create () in
  let a = Mem.mmap mem Mem.page_size in
  Mem.checkpoint mem;
  let b = Mem.mmap mem (2 * Mem.page_size) in
  Mem.write8 mem (b + Mem.page_size) 7;
  ignore (Mem.rewind mem);
  expect_unmapped "discarded born segment" (b + Mem.page_size) (fun () ->
      Mem.read8 mem (b + Mem.page_size));
  let b' = Mem.mmap mem (2 * Mem.page_size) in
  check_int "the base is reused" b b';
  check_int "the new segment's fresh bytes" 0 (Mem.read8 mem (b' + Mem.page_size));
  Mem.write8 mem (b' + Mem.page_size) 9;
  check_int "the new segment's own store" 9 (Mem.read8 mem (b' + Mem.page_size));
  Mem.write8 mem a 1;
  check_int "the older segment" 1 (Mem.read8 mem a)

let test_table_rewind_unmapped_returns () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (2 * Mem.page_size) in
  Mem.write64 mem (a + Mem.page_size) 42;
  Mem.checkpoint mem;
  Mem.munmap mem a;
  expect_unmapped "unmapped under the checkpoint" (a + Mem.page_size) (fun () ->
      Mem.read64 mem (a + Mem.page_size));
  ignore (Mem.rewind mem);
  check_int "readable again after rewind" 42 (Mem.read64 mem (a + Mem.page_size));
  check "segment_of" true (Mem.segment_of mem (a + 5) = Some (a, 2 * Mem.page_size))

(* Word loads and stores that alternate between two segments allocate
   nothing: translation is one page-table load. *)
let test_word_access_allocates_nothing () =
  let mem = Mem.create () in
  let a = Mem.mmap mem Mem.page_size and b = Mem.mmap mem Mem.page_size in
  let before = Gc.minor_words () in
  for i = 0 to 4_999 do
    let off = 8 * (i land 511) in
    Mem.write64 mem (a + off) i;
    Mem.write64 mem (b + off) (Mem.read64 mem (a + off))
  done;
  Alcotest.(check (float 0.)) "minor words for 15,000 word accesses" 0.
    (Gc.minor_words () -. before)

(* A word range allocates nothing either, whether the word loop or one
   blit copies it: no closure over its pieces on an unmeshed segment,
   nor on a meshed one when the range stays on one page. *)
let test_word_ranges_allocate_nothing () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (4 * Mem.page_size) in
  let buf = Bytes.make (64 * 8) 'w' in
  let ranges label =
    let before = Gc.minor_words () in
    for i = 0 to 4_999 do
      let n = 1 + (i land 63) and addr = a + (8 * (i land 511)) in
      let addr = if addr land (Mem.page_size - 1) + (8 * n) > Mem.page_size then a else addr in
      Mem.write_words mem ~addr buf ~n;
      Mem.read_words mem ~addr buf ~n
    done;
    Alcotest.(check (float 0.)) (label ^ ": minor words for 10,000 word ranges") 0.
      (Gc.minor_words () -. before)
  in
  ranges "unmeshed";
  Mem.alias mem ~src:(a + (2 * Mem.page_size)) ~dst:(a + (3 * Mem.page_size)) ~live:[];
  ranges "meshed"

(* A word count the buffer cannot hold is a caller's bug, rejected
   before anything is charged or counted. *)
let test_word_ranges_reject_bad_counts () =
  let mem = Mem.create () in
  let a = Mem.mmap mem Mem.page_size in
  let buf = Bytes.make 20 'w' in
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name (Invalid_argument (name ^ ": word count outside the buffer")) f)
    [
      ("Mem.write_words", fun () -> Mem.write_words mem ~addr:a buf ~n:3);
      ("Mem.read_words", fun () -> Mem.read_words mem ~addr:a buf ~n:(-1));
    ];
  let st = Mem.stats mem in
  check_int "nothing counted" 0 (st.Mem.reads + st.Mem.writes);
  check_int "nothing charged" 0 (st.Mem.tlb_misses + st.Mem.cache_misses)

let prop_disjoint_writes_do_not_interfere =
  QCheck.Test.make ~name:"byte writes to distinct addresses are independent" ~count:200
    QCheck.(triple (int_bound 4000) (int_bound 4000) (pair (int_bound 255) (int_bound 255)))
    (fun (i, j, (x, y)) ->
      QCheck.assume (i <> j);
      let mem = Mem.create () in
      let a = Mem.mmap mem 4096 in
      Mem.write8 mem (a + i) x;
      Mem.write8 mem (a + j) y;
      Mem.read8 mem (a + i) = x && Mem.read8 mem (a + j) = y)

let suite =
  [
    Alcotest.test_case "mmap aligned base" `Quick test_mmap_returns_aligned_base;
    Alcotest.test_case "mmap page rounding" `Quick test_mmap_rounds_to_pages;
    Alcotest.test_case "segments disjoint" `Quick test_segments_disjoint;
    Alcotest.test_case "hole between segments" `Quick test_hole_between_segments;
    Alcotest.test_case "munmap" `Quick test_munmap;
    Alcotest.test_case "munmap bad base" `Quick test_munmap_bad_base;
    Alcotest.test_case "NULL never mapped" `Quick test_null_never_mapped;
    Alcotest.test_case "segment_of" `Quick test_segment_of;
    Alcotest.test_case "mapped bytes accounting" `Quick test_mapped_bytes;
    Alcotest.test_case "guard page faults" `Quick test_guard_page_faults;
    Alcotest.test_case "read-only pages" `Quick test_read_only;
    Alcotest.test_case "word across guard faults" `Quick test_word_access_across_guard_faults;
    Alcotest.test_case "byte roundtrip" `Quick test_byte_roundtrip;
    Alcotest.test_case "byte truncation" `Quick test_byte_truncation;
    Alcotest.test_case "word roundtrip" `Quick test_word_roundtrip;
    Alcotest.test_case "word little endian" `Quick test_word_little_endian;
    Alcotest.test_case "unaligned word" `Quick test_unaligned_word;
    Alcotest.test_case "fresh memory zeroed" `Quick test_fresh_memory_zeroed;
    Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
    Alcotest.test_case "fill" `Quick test_fill;
    Alcotest.test_case "random fill seed-dependent" `Quick test_fill_random_differs_by_seed;
    Alcotest.test_case "cstring" `Quick test_cstring;
    Alcotest.test_case "stats counting" `Quick test_stats_counting;
    Alcotest.test_case "touched pages" `Quick test_touched_pages;
    Alcotest.test_case "fault addr: Unmapped" `Quick test_fault_addr_unmapped;
    Alcotest.test_case "fault addr: Protection" `Quick test_fault_addr_protection;
    Alcotest.test_case "fault addr: Unmap_unmapped" `Quick test_fault_addr_unmap_unmapped;
    Alcotest.test_case "fault addr: Protect_unmapped" `Quick
      test_fault_addr_protect_unmapped;
    Alcotest.test_case "table: unmapped addresses" `Quick test_table_unmapped_addresses;
    Alcotest.test_case "table: grows" `Quick test_table_grows;
    Alcotest.test_case "table: rewound born base reused" `Quick
      test_table_rewind_born_then_reused;
    Alcotest.test_case "table: rewind restores unmapped" `Quick
      test_table_rewind_unmapped_returns;
    Alcotest.test_case "word access allocates nothing" `Quick
      test_word_access_allocates_nothing;
    Alcotest.test_case "word ranges allocate nothing" `Quick
      test_word_ranges_allocate_nothing;
    Alcotest.test_case "word ranges reject bad counts" `Quick
      test_word_ranges_reject_bad_counts;
    Alcotest.test_case "process exit" `Quick test_process_exit;
    Alcotest.test_case "process exit code" `Quick test_process_exit_code;
    Alcotest.test_case "process crash" `Quick test_process_crash;
    Alcotest.test_case "process abort" `Quick test_process_abort;
    Alcotest.test_case "process timeout" `Quick test_process_timeout;
    Alcotest.test_case "fuel accounting" `Quick test_fuel_accounting;
    QCheck_alcotest.to_alcotest prop_word_roundtrip;
    QCheck_alcotest.to_alcotest prop_disjoint_writes_do_not_interfere;
  ]
