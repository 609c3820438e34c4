(* Differential tests for the bulk-access fast paths: a bulk operation
   must be observably identical to the bytewise loop it replaces —
   contents, read/write counts, TLB and cache misses, touched pages, and
   on an illegal range the exact fault address with no partial effects.
   Plus regressions for the three Mem bugs fixed alongside (torn word
   writes, path-dependent miss accounting, protect misreporting), unit
   cases for write_cstring's strcpy-style stores, and the Bitmap scan
   rewrite. *)

open Dh_mem

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fault_of f =
  match f () with
  | exception Fault.Error fault -> Some fault
  | _ -> None

let expect_fault f = check "faults" true (fault_of f <> None)

let delta (a : Mem.stats) (b : Mem.stats) =
  Mem.(b.reads - a.reads, b.writes - a.writes,
       b.tlb_misses - a.tlb_misses, b.cache_misses - a.cache_misses)

let miss_delta (a : Mem.stats) (b : Mem.stats) =
  Mem.(b.tlb_misses - a.tlb_misses, b.cache_misses - a.cache_misses)

(* --- bulk vs bytewise: contents --- *)

let test_roundtrip () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (4 * 4096) in
  let payload = String.init 10000 (fun i -> Char.chr ((i * 7 + 3) land 0xFF)) in
  Mem.write_bytes mem ~addr:(a + 5) payload;
  (* bytewise readback sees exactly what the bulk write stored *)
  let ok = ref true in
  String.iteri
    (fun i c -> if Mem.read8 mem (a + 5 + i) <> Char.code c then ok := false)
    payload;
  check "write_bytes visible to read8" true !ok;
  check_string "read_bytes returns the payload" payload
    (Mem.read_bytes mem ~addr:(a + 5) ~len:(String.length payload));
  check_string "zero-length read" "" (Mem.read_bytes mem ~addr:a ~len:0);
  Mem.write_bytes mem ~addr:a "";
  Mem.fill mem ~addr:(a + 100) ~len:0 'x'

let test_bulk_op_counts () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  let s0 = Mem.stats mem in
  Mem.write_bytes mem ~addr:a (String.make 10 'q');
  let s1 = Mem.stats mem in
  check_int "bulk write counts len writes" 10 Mem.(s1.writes - s0.writes);
  ignore (Mem.read_bytes mem ~addr:a ~len:10);
  let s2 = Mem.stats mem in
  check_int "bulk read counts len reads" 10 Mem.(s2.reads - s1.reads);
  Mem.fill mem ~addr:a ~len:7 'z';
  let s3 = Mem.stats mem in
  check_int "fill counts len writes" 7 Mem.(s3.writes - s2.writes)

(* --- bulk vs bytewise: identical charges on twin heaps --- *)

(* Besides a few pages at unaligned offsets, each differential also runs
   the throughput bench's whole ranges: 64 KiB is the cache's reach and
   256 KiB the TLB's, so misses there depend on eviction, not only on
   first touches. *)
let bench_lens = [ 64 * 1024; 256 * 1024 ]

let same_effects what (m1, s1) (m2, s2) =
  check (what ^ ": same read/write/tlb/cache deltas") true
    (delta s1 (Mem.stats m1) = delta s2 (Mem.stats m2));
  check_int (what ^ ": same touched pages") (Mem.touched_pages m2) (Mem.touched_pages m1)

let fill_matches_bytewise ~len ~off ~n =
  let what = Printf.sprintf "fill %d at +%d" n off in
  let m1 = Mem.create () and m2 = Mem.create () in
  let a1 = Mem.mmap m1 len and a2 = Mem.mmap m2 len in
  let s1 = Mem.stats m1 and s2 = Mem.stats m2 in
  Mem.fill m1 ~addr:(a1 + off) ~len:n 'R';
  for i = 0 to n - 1 do
    Mem.write8 m2 (a2 + off + i) (Char.code 'R')
  done;
  same_effects what (m1, s1) (m2, s2);
  check_string (what ^ ": same contents")
    (Mem.read_bytes m2 ~addr:a2 ~len)
    (Mem.read_bytes m1 ~addr:a1 ~len)

let test_fill_matches_bytewise () =
  fill_matches_bytewise ~len:(3 * 4096) ~off:9 ~n:((3 * 4096) - 100);
  List.iter (fun len -> fill_matches_bytewise ~len ~off:0 ~n:len) bench_lens

let read_matches_bytewise ~len ~off ~n =
  let what = Printf.sprintf "read %d at +%d" n off in
  let m1 = Mem.create () and m2 = Mem.create () in
  let a1 = Mem.mmap m1 len and a2 = Mem.mmap m2 len in
  Mem.fill_random m1 ~addr:a1 ~len (Dh_rng.Mwc.create ~seed:3);
  Mem.fill_random m2 ~addr:a2 ~len (Dh_rng.Mwc.create ~seed:3);
  let s1 = Mem.stats m1 and s2 = Mem.stats m2 in
  let got = Mem.read_bytes m1 ~addr:(a1 + off) ~len:n in
  let buf = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set buf i (Char.chr (Mem.read8 m2 (a2 + off + i)))
  done;
  same_effects what (m1, s1) (m2, s2);
  check_string (what ^ ": same bytes") (Bytes.to_string buf) got

let test_read_matches_bytewise () =
  read_matches_bytewise ~len:(2 * 4096) ~off:11 ~n:((2 * 4096) - 50);
  List.iter (fun len -> read_matches_bytewise ~len ~off:0 ~n:len) bench_lens

(* A whole-range copy, [read_bytes] then [write_bytes], against the
   bytewise reference that mirrors it operation for operation: every
   byte read, then every byte written.  (A per-byte interleaved memcpy
   is a different access sequence, and once the range exceeds the
   cache it sees different misses.) *)
let test_copy_matches_bytewise () =
  List.iter
    (fun len ->
      let what = Printf.sprintf "copy %d" len in
      let m1 = Mem.create () and m2 = Mem.create () in
      let src1 = Mem.mmap m1 len and src2 = Mem.mmap m2 len in
      let dst1 = Mem.mmap m1 len and dst2 = Mem.mmap m2 len in
      Mem.fill_random m1 ~addr:src1 ~len (Dh_rng.Mwc.create ~seed:7);
      Mem.fill_random m2 ~addr:src2 ~len (Dh_rng.Mwc.create ~seed:7);
      let s1 = Mem.stats m1 and s2 = Mem.stats m2 in
      Mem.write_bytes m1 ~addr:dst1 (Mem.read_bytes m1 ~addr:src1 ~len);
      let tmp = Bytes.create len in
      for i = 0 to len - 1 do
        Bytes.set tmp i (Char.chr (Mem.read8 m2 (src2 + i)))
      done;
      for i = 0 to len - 1 do
        Mem.write8 m2 (dst2 + i) (Char.code (Bytes.get tmp i))
      done;
      same_effects what (m1, s1) (m2, s2);
      check_string (what ^ ": same bytes")
        (Mem.read_bytes m2 ~addr:dst2 ~len)
        (Mem.read_bytes m1 ~addr:dst1 ~len))
    bench_lens

(* Satellite: miss accounting must depend only on the pages/lines an
   access spans, never on the code path that performs it. *)
let test_word_miss_accounting_invariant () =
  List.iter
    (fun off ->
      let m1 = Mem.create () and m2 = Mem.create () in
      let a1 = Mem.mmap m1 8192 and a2 = Mem.mmap m2 8192 in
      let s1 = Mem.stats m1 and s2 = Mem.stats m2 in
      Mem.write64 m1 (a1 + off) 0x1122334455667788;
      for i = 0 to 7 do
        Mem.write8 m2 (a2 + off + i) ((0x1122334455667788 lsr (8 * i)) land 0xFF)
      done;
      check "write64 misses = 8x write8 misses" true
        (miss_delta s1 (Mem.stats m1) = miss_delta s2 (Mem.stats m2));
      check_int "same touched pages" (Mem.touched_pages m2) (Mem.touched_pages m1);
      let s1 = Mem.stats m1 and s2 = Mem.stats m2 in
      check_int "same value" (Mem.read64 m1 (a1 + off))
        (let v = ref 0 in
         for i = 7 downto 0 do
           v := (!v lsl 8) lor Mem.read8 m2 (a2 + off + i)
         done;
         !v);
      check "read64 misses = 8x read8 misses" true
        (miss_delta s1 (Mem.stats m1) = miss_delta s2 (Mem.stats m2)))
    (* line-interior, line-crossing, page-crossing *)
    [ 16; 60; 4092 ]

(* --- exact-fault semantics --- *)

(* Satellite: a word write that runs off the end of a mapping used to
   store its in-bounds prefix before faulting. *)
let test_write64_not_torn_at_segment_end () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.fill mem ~addr:(a + 4088) ~len:8 '\xAA';
  (match fault_of (fun () -> Mem.write64 mem (a + 4092) 0x1111111111111111) with
  | Some (Fault.Unmapped { addr; access = Fault.Write }) ->
    check_int "fault at first unmapped byte" (a + 4096) addr
  | _ -> Alcotest.fail "expected Unmapped write fault");
  check_string "no partial write" (String.make 8 '\xAA')
    (Mem.read_bytes mem ~addr:(a + 4088) ~len:8)

let test_write64_not_torn_at_protection_boundary () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 8192 in
  Mem.fill mem ~addr:(a + 4088) ~len:4 '\xBB';
  Mem.protect mem ~addr:(a + 4096) ~len:4096 Mem.Read_only;
  (match fault_of (fun () -> Mem.write64 mem (a + 4092) 0x2222222222222222) with
  | Some (Fault.Protection { addr; access = Fault.Write }) ->
    check_int "fault at first read-only byte" (a + 4096) addr
  | _ -> Alcotest.fail "expected Protection write fault");
  check_string "first-page half untouched" (String.make 4 '\xBB')
    (Mem.read_bytes mem ~addr:(a + 4088) ~len:4)

let test_bulk_write_fault_no_side_effects () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.fill mem ~addr:(a + 4000) ~len:96 '\xAA';
  let s0 = Mem.stats mem in
  let tp0 = Mem.touched_pages mem in
  (match fault_of (fun () -> Mem.write_bytes mem ~addr:(a + 4000) (String.make 200 'Z')) with
  | Some (Fault.Unmapped { addr; access = Fault.Write }) ->
    check_int "fault at first byte past the segment" (a + 4096) addr
  | _ -> Alcotest.fail "expected Unmapped write fault");
  let s1 = Mem.stats mem in
  check_int "no writes counted on fault" 0 Mem.(s1.writes - s0.writes);
  check_int "no touched pages on fault" tp0 (Mem.touched_pages mem);
  check_string "in-bounds prefix unmodified" (String.make 96 '\xAA')
    (Mem.read_bytes mem ~addr:(a + 4000) ~len:96)

let test_bulk_fault_address_matches_bytewise () =
  (* fill across a read-only middle page: the bulk fault must land where
     the bytewise loop's would *)
  let m1 = Mem.create () and m2 = Mem.create () in
  let a1 = Mem.mmap m1 (3 * 4096) and a2 = Mem.mmap m2 (3 * 4096) in
  Mem.protect m1 ~addr:(a1 + 4096) ~len:4096 Mem.Read_only;
  Mem.protect m2 ~addr:(a2 + 4096) ~len:4096 Mem.Read_only;
  let f1 = fault_of (fun () -> Mem.fill m1 ~addr:(a1 + 100) ~len:8000 'x') in
  let f2 =
    fault_of (fun () ->
        for i = 0 to 7999 do
          Mem.write8 m2 (a2 + 100 + i) (Char.code 'x')
        done)
  in
  (match (f1, f2) with
  | ( Some (Fault.Protection { addr = b1; access = Fault.Write }),
      Some (Fault.Protection { addr = b2; access = Fault.Write }) ) ->
    check_int "bulk faults where the loop does" (b2 - a2) (b1 - a1);
    check_int "at the read-only page start" 4096 (b1 - a1)
  | _ -> Alcotest.fail "expected two Protection faults");
  (* same fault address, different completion semantics: the bytewise loop
     has written its prefix, the bulk fill is atomic and has written
     nothing *)
  check_string "bytewise loop wrote its prefix" (String.make 3996 'x')
    (Mem.read_bytes m2 ~addr:(a2 + 100) ~len:3996);
  check_string "bulk fill left no partial write" (String.make 3996 '\000')
    (Mem.read_bytes m1 ~addr:(a1 + 100) ~len:3996)

let test_read_bytes_faults_past_segment () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  ignore (Mem.mmap mem 4096);
  match fault_of (fun () -> Mem.read_bytes mem ~addr:(a + 4090) ~len:100) with
  | Some (Fault.Unmapped { addr; access = Fault.Read }) ->
    check_int "fault at the hole page" (a + 4096) addr
  | _ -> Alcotest.fail "expected Unmapped read fault"

(* Satellite: protect used to report a bogus Write fault at the wrong
   address; it now raises a dedicated cause carrying the first offending
   byte, and mutates nothing when it fails. *)
let test_protect_unmapped_reporting () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  (match fault_of (fun () -> Mem.protect mem ~addr:(a + 123456) ~len:4096 Mem.Read_only) with
  | Some (Fault.Protect_unmapped { addr; len; fault_addr }) ->
    check_int "addr is the requested base" (a + 123456) addr;
    check_int "len is the requested length" 4096 len;
    check_int "fault_addr is the base when unmapped" (a + 123456) fault_addr
  | _ -> Alcotest.fail "expected Protect_unmapped");
  (match fault_of (fun () -> Mem.protect mem ~addr:a ~len:8192 Mem.No_access) with
  | Some (Fault.Protect_unmapped { addr; len; fault_addr }) ->
    check_int "addr is the requested base" a addr;
    check_int "len is the requested length" 8192 len;
    check_int "fault_addr is the first byte past the segment" (a + 4096) fault_addr
  | _ -> Alcotest.fail "expected Protect_unmapped");
  (* the failed protect changed no page protections *)
  Mem.write8 mem a 1;
  check_int "page still writable" 1 (Mem.read8 mem a)

(* --- fill_random determinism --- *)

let test_fill_random_stream_parity () =
  (* same seed => byte-identical heaps, and the documented consumption:
     one u32 per four bytes, least-significant byte first *)
  let m1 = Mem.create () and m2 = Mem.create () in
  let len = 4096 + 37 in
  let a1 = Mem.mmap m1 8192 and a2 = Mem.mmap m2 8192 in
  Mem.fill_random m1 ~addr:(a1 + 3) ~len (Dh_rng.Mwc.create ~seed:99);
  Mem.fill_random m2 ~addr:(a2 + 3) ~len (Dh_rng.Mwc.create ~seed:99);
  check_string "replica heaps byte-identical"
    (Mem.read_bytes m1 ~addr:(a1 + 3) ~len)
    (Mem.read_bytes m2 ~addr:(a2 + 3) ~len);
  let rng = Dh_rng.Mwc.create ~seed:99 in
  let expected = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let v = Dh_rng.Mwc.next_u32 rng in
    let n = min 4 (len - !i) in
    for j = 0 to n - 1 do
      Bytes.set expected (!i + j) (Char.chr ((v lsr (8 * j)) land 0xFF))
    done;
    i := !i + n
  done;
  check_string "documented stream consumption" (Bytes.to_string expected)
    (Mem.read_bytes m1 ~addr:(a1 + 3) ~len);
  (* A meshed segment validates page by page, so a fill across a page
     boundary there is split into runs: the stream must not notice. *)
  let mem = Mem.create () in
  let a = Mem.mmap mem (3 * Mem.page_size) in
  Mem.alias mem ~src:a ~dst:(a + (2 * Mem.page_size)) ~live:[];
  let addr = a + Mem.page_size - 3 in
  Mem.fill_random mem ~addr ~len (Dh_rng.Mwc.create ~seed:99);
  check_string "split runs, same stream"
    (Bytes.sub_string expected 0 (Mem.page_size + 3))
    (Mem.read_bytes mem ~addr ~len:(Mem.page_size + 3))

(* --- C strings: write_cstring stores as C's strcpy does --- *)

let test_cstring_crosses_pages () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (3 * 4096) in
  let s = String.make 5000 'x' in
  Mem.write_cstring mem ~addr:(a + 100) s;
  check_string "page-crossing string" (s ^ "\000")
    (Mem.read_bytes mem ~addr:(a + 100) ~len:5001);
  check_int "both pages it spans touched" 2 (Mem.touched_pages mem);
  Mem.write_cstring mem ~addr:(a + 8190) "y";
  check_string "terminator on the last byte of a page" "y\000"
    (Mem.read_bytes mem ~addr:(a + 8190) ~len:2);
  check_int "no page past it touched" 2 (Mem.touched_pages mem);
  Mem.write_cstring mem ~addr:(a + 8191) "z";
  check_string "string on a page's last byte, NUL on the next page" "yz\000"
    (Mem.read_bytes mem ~addr:(a + 8190) ~len:3);
  check_int "the next page touched" 3 (Mem.touched_pages mem)

let test_cstring_unterminated_faults () =
  (* A copy that runs off its segment faults at the segment's end: the
     bytes before the fault are stored, the string left unterminated. *)
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  let s0 = Mem.stats mem in
  match fault_of (fun () -> Mem.write_cstring mem ~addr:(a + 4000) (String.make 200 'A')) with
  | Some (Fault.Unmapped { addr; access = Fault.Write }) ->
    check_int "runs off the segment and faults there" (a + 4096) addr;
    check_int "stores counted up to the faulting byte" 97 Mem.((stats mem).writes - s0.writes);
    check_string "bytes before the fault stored" (String.make 96 'A')
      (Mem.read_bytes mem ~addr:(a + 4000) ~len:96)
  | _ -> Alcotest.fail "expected Unmapped write fault"

let test_cstring_protection_fault () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 8192 in
  Mem.protect mem ~addr:(a + 4096) ~len:4096 Mem.No_access;
  match fault_of (fun () -> Mem.write_cstring mem ~addr:a (String.make 5000 'B')) with
  | Some (Fault.Protection { addr; access = Fault.Write }) ->
    check_int "faults at the no-access page" (a + 4096) addr;
    check_string "the page before it written" (String.make 4096 'B')
      (Mem.read_bytes mem ~addr:a ~len:4096)
  | _ -> Alcotest.fail "expected Protection write fault"

(* --- bitmap scan rewrite --- *)

let test_iter_clear_complements_iter_set () =
  let rng = Dh_rng.Mwc.create ~seed:77 in
  for _ = 1 to 50 do
    let n = 1 + Dh_rng.Mwc.below rng 500 in
    let bm = Dh_alloc.Bitmap.create n in
    for i = 0 to n - 1 do
      if Dh_rng.Mwc.bool rng then Dh_alloc.Bitmap.set bm i
    done;
    let seen = Array.make n 0 in
    Dh_alloc.Bitmap.iter_set bm (fun i -> seen.(i) <- seen.(i) + 1);
    Dh_alloc.Bitmap.iter_clear bm (fun i -> seen.(i) <- seen.(i) + 10);
    let ok = ref true in
    for i = 0 to n - 1 do
      let expected = if Dh_alloc.Bitmap.get bm i then 1 else 10 in
      if seen.(i) <> expected then ok := false
    done;
    check "iter_set and iter_clear partition the indices" true !ok
  done

(* --- zero-length and degenerate bulk ops never fault --- *)

let test_zero_length_never_faults () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  (* even at the very end of the mapping, where byte 0 would fault *)
  check_string "empty read at segment end" ""
    (Mem.read_bytes mem ~addr:(a + 4096) ~len:0);
  Mem.write_bytes mem ~addr:(a + 4096) "";
  Mem.fill mem ~addr:(a + 4096) ~len:0 'x';
  Mem.fill_random mem ~addr:(a + 4096) ~len:0 (Dh_rng.Mwc.create ~seed:1);
  expect_fault (fun () -> ignore (Mem.read_bytes mem ~addr:(a + 4096) ~len:1))

let suite =
  [
    Alcotest.test_case "bulk roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "bulk op counts" `Quick test_bulk_op_counts;
    Alcotest.test_case "fill matches bytewise" `Quick test_fill_matches_bytewise;
    Alcotest.test_case "read matches bytewise" `Quick test_read_matches_bytewise;
    Alcotest.test_case "copy matches bytewise" `Quick test_copy_matches_bytewise;
    Alcotest.test_case "word miss accounting invariant" `Quick
      test_word_miss_accounting_invariant;
    Alcotest.test_case "write64 not torn at segment end" `Quick
      test_write64_not_torn_at_segment_end;
    Alcotest.test_case "write64 not torn at protection boundary" `Quick
      test_write64_not_torn_at_protection_boundary;
    Alcotest.test_case "bulk write fault has no side effects" `Quick
      test_bulk_write_fault_no_side_effects;
    Alcotest.test_case "bulk fault address matches bytewise" `Quick
      test_bulk_fault_address_matches_bytewise;
    Alcotest.test_case "read_bytes faults past segment" `Quick
      test_read_bytes_faults_past_segment;
    Alcotest.test_case "protect unmapped reporting" `Quick
      test_protect_unmapped_reporting;
    Alcotest.test_case "fill_random stream parity" `Quick
      test_fill_random_stream_parity;
    Alcotest.test_case "cstring crosses pages" `Quick test_cstring_crosses_pages;
    Alcotest.test_case "cstring unterminated faults" `Quick
      test_cstring_unterminated_faults;
    Alcotest.test_case "cstring protection fault" `Quick test_cstring_protection_fault;
    Alcotest.test_case "bitmap iter_clear complements iter_set" `Quick
      test_iter_clear_complements_iter_set;
    Alcotest.test_case "zero-length bulk ops" `Quick test_zero_length_never_faults;
  ]
