(* Tests for the Rx-style rescue allocator wrapper: the degradation rung
   the supervisor falls back to when randomized retries are exhausted. *)

module Mem = Dh_mem.Mem
module Allocator = Dh_alloc.Allocator
module Rescue = Dh_alloc.Rescue
module Stats = Dh_alloc.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fresh_freelist () =
  let mem = Mem.create () in
  Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create mem)

let fresh_diehard () =
  let mem = Mem.create () in
  let config = Diehard.Config.v ~heap_size:(12 * 256 * 1024) ~seed:1 () in
  Diehard.Heap.allocator (Diehard.Heap.create ~config mem)

let test_double_free_ignored () =
  (* Deferred frees never reach the underlying allocator, so the classic
     freelist double-free corruption cannot happen. *)
  let base = fresh_freelist () in
  let rescued = Rescue.wrap base in
  let p = Allocator.malloc_exn rescued 64 in
  rescued.Allocator.free p;
  rescued.Allocator.free p;
  check_int "no free reached the freelist" 0 base.Allocator.stats.Stats.frees;
  check_int "both counted as ignored" 2 base.Allocator.stats.Stats.ignored_frees;
  (* the aliasing consequence is gone too: fresh allocations are fresh *)
  let a = Allocator.malloc_exn rescued 64 in
  let b = Allocator.malloc_exn rescued 64 in
  check "no aliasing after double free" true (a <> b && a <> p && b <> p)

let test_padding_absorbs_overflow () =
  (* The freelist lays q directly after p; a 16-byte overflow lands in
     rescue's 64-byte pad instead of q's header and payload. *)
  let base = fresh_freelist () in
  let rescued = Rescue.wrap base in
  let p = Allocator.malloc_exn rescued 64 in
  let q = Allocator.malloc_exn rescued 64 in
  Mem.write64 rescued.Allocator.mem q 424242;
  (match base.Allocator.find_object p with
  | Some { Allocator.size; _ } -> check "reservation padded" true (size >= 64 + 64)
  | None -> Alcotest.fail "padded object missing");
  for i = 0 to 15 do
    Mem.write8 rescued.Allocator.mem (p + 64 + i) 0xEE
  done;
  check_int "neighbour survives the overflow" 424242 (Mem.read64 rescued.Allocator.mem q);
  (* allocator metadata survives too: allocation still works *)
  ignore (Allocator.malloc_exn rescued 64)

(* Scribble past offset 16: a freed chunk's first two payload words hold
   the freelist's own bin links, so only later bytes stay stale. *)
let stale_offset = 24

let test_zero_fill_masks_uninit_reads () =
  (* Dirty a chunk under the raw freelist, free it, then reallocate it
     through rescue, whose 32-byte request reaches the freelist padded
     to 32 + 64 bytes: the stale bytes must read back as zero. *)
  let base = fresh_freelist () in
  let p = Allocator.malloc_exn base (32 + 64) in
  Mem.write64 base.Allocator.mem (p + stale_offset) 0x6a6a6a6a;
  base.Allocator.free p;
  let rescued = Rescue.wrap base in
  let q = Allocator.malloc_exn rescued 32 in
  check_int "LIFO freelist reused the dirty chunk" p q;
  check_int "stale bytes zeroed" 0 (Mem.read64 rescued.Allocator.mem (q + stale_offset))

let test_rescue_over_diehard_end_to_end () =
  (* The supervisor's degraded rung: a program that double frees and
     overflows still completes on a rescue-wrapped DieHard heap. *)
  let program =
    Dh_lang.Interp.program_of_source ~name:"abuser"
      {|fn main() {
          var p = malloc(64);
          var q = malloc(64);
          q[0] = 31337;
          for (var i = 8; i < 12; i = i + 1) { p[i] = 666; }
          free(p);
          free(p);
          var r = malloc(64);
          r[0] = 1;
          if (q[0] == 31337 && r[0] == 1) { print_int(1); } else { print_int(0); }
        }|}
  in
  let rescued = Rescue.wrap (fresh_diehard ()) in
  let result = Dh_alloc.Program.run program rescued in
  check "completed" true (result.Dh_mem.Process.outcome = Dh_mem.Process.Exited 0);
  Alcotest.(check string) "error fully masked" "1" result.Dh_mem.Process.output

let suite =
  [
    Alcotest.test_case "double frees ignored" `Quick test_double_free_ignored;
    Alcotest.test_case "padding absorbs overflow" `Quick test_padding_absorbs_overflow;
    Alcotest.test_case "zero-fill masks uninit reads" `Quick test_zero_fill_masks_uninit_reads;
    Alcotest.test_case "rescue end-to-end" `Quick test_rescue_over_diehard_end_to_end;
  ]
