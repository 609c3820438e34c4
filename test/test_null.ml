(* The NULL contract every allocator and wrapper keeps: a request the
   heap cannot serve returns NULL (address 0, which no address space
   maps), counts one failed malloc, and leaves no trace in a wrapper;
   [Allocator.realloc] keeps C's semantics around it. *)

module Mem = Dh_mem.Mem
module Allocator = Dh_alloc.Allocator
module Stats = Dh_alloc.Stats
module Config = Diehard.Config
module Heap = Diehard.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let null = Allocator.null
let malloc (a : Allocator.t) n = a.Allocator.malloc n
let realloc = Allocator.realloc

(* A 768 KiB DieHard heap: 64 KiB regions, so the 4096-byte class has
   16 slots and serves 8 objects (M = 2). *)
let config = Config.v ~heap_size:(12 * 64 * 1024) ~seed:7 ()
let diehard () = Heap.allocator (Heap.create ~config (Mem.create ()))

type subject = {
  name : string;
  make : unit -> Allocator.t;
  exhausts : int option;
      (* A request size the heap runs out of within [bound] requests;
         [None] for a heap that grows without limit. *)
  other : int;  (* A size the heap serves before any exhaustion. *)
}

let bound = 200

let subjects =
  [
    { name = "diehard"; make = diehard; exhausts = Some 4096; other = 16 };
    {
      name = "freelist-lea";
      make =
        (fun () ->
          Dh_alloc.Freelist.allocator
            (Dh_alloc.Freelist.create ~arena_size:65536 ~heap_limit:65536 (Mem.create ())));
      exhausts = Some 4096;
      other = 16;
    };
    {
      name = "gc-bdw";
      make =
        (fun () ->
          Dh_alloc.Gc.allocator (Dh_alloc.Gc.create ~arena_size:65536 ~heap_limit:65536 (Mem.create ())));
      exhausts = Some 4096;
      other = 16;
    };
    {
      name = "adaptive";
      make = (fun () -> Diehard.Adaptive.allocator (Diehard.Adaptive.create (Mem.create ())));
      exhausts = None;
      other = 16;
    };
    {
      name = "hybrid";
      make = (fun () -> Diehard.Hybrid.allocator (Diehard.Hybrid.create ~config (Mem.create ())));
      exhausts = Some 256;
      other = 16;
    };
    {
      name = "rescue";
      make = (fun () -> Dh_alloc.Rescue.wrap (diehard ()));
      exhausts = Some 4000;
      other = 16;
    };
    { name = "canary"; make = (fun () -> snd (Dh_alloc.Canary.wrap (diehard ()))); exhausts = Some 4096; other = 16 };
    { name = "trace"; make = (fun () -> snd (Dh_alloc.Trace.wrap (diehard ()))); exhausts = Some 4096; other = 16 };
    {
      name = "injector";
      make = (fun () -> Dh_fault.Injector.wrap Dh_fault.Injector.nothing ~log:[] (diehard ()));
      exhausts = Some 4096;
      other = 16;
    };
  ]

(* Everything a test allocates stays a root of a collecting heap, so a
   collection never frees it. *)
let rooted (a : Allocator.t) =
  let held = ref [] in
  Option.iter (fun register -> register (fun () -> !held)) a.Allocator.register_roots;
  fun p -> held := p :: !held

(* Request [sz] until the heap returns NULL; the successes stay live. *)
let exhaust a hold sz =
  let rec go k =
    if k >= bound then Alcotest.failf "%s: no NULL within %d requests of %d" a.Allocator.name bound sz
    else
      let p = malloc a sz in
      if p = null then () else (hold p; go (k + 1))
  in
  go 0

let failed (a : Allocator.t) = a.Allocator.stats.Stats.failed_mallocs
let freed (a : Allocator.t) = a.Allocator.stats.Stats.frees + a.Allocator.stats.Stats.ignored_frees

(* -1 and -63 become live sizes if a wrapper pads them. *)
let test_invalid_size s () =
  let a = s.make () in
  List.iter
    (fun n ->
      check (Printf.sprintf "malloc (%d) is NULL" n) true (malloc a n = null);
      check (Printf.sprintf "realloc NULL (%d) is NULL" n) true (realloc a null n = null))
    [ -1; -63; -1000 ]

let test_exhaustion s sz () =
  let a = s.make () in
  let hold = rooted a in
  let before = failed a in
  exhaust a hold sz;
  let nulls = ref 1 in
  for _ = 1 to 3 do
    if malloc a sz = null then incr nulls
  done;
  check_int "every later request is NULL too" 4 !nulls;
  check_int "failed_mallocs counts each NULL" !nulls (failed a - before)

let test_realloc_null s () =
  let a = s.make () and b = s.make () in
  List.iter
    (fun n ->
      check_int (Printf.sprintf "realloc NULL %d is malloc %d" n n) (malloc b n) (realloc a null n))
    [ s.other; 100; 4096; 20000; s.other ];
  check "the same counters" true (Stats.copy a.Allocator.stats = Stats.copy b.Allocator.stats)

let test_realloc_zero s () =
  let a = s.make () in
  let p = malloc a s.other in
  let freed_before = freed a and failed_before = failed a in
  check "realloc p 0 is NULL" true (realloc a p 0 = null);
  check_int "it frees p, once" 1 (freed a - freed_before);
  check_int "it is no failed malloc" failed_before (failed a)

let pattern = "0123456789abcdef"

let test_failed_realloc s sz () =
  let a = s.make () in
  let hold = rooted a in
  let p = malloc a s.other in
  hold p;
  Mem.write_bytes a.Allocator.mem ~addr:p pattern;
  exhaust a hold sz;
  let before = failed a in
  check "realloc into the exhausted size is NULL" true (realloc a p sz = null);
  check_int "one failed malloc" 1 (failed a - before);
  (match a.Allocator.find_object p with
  | Some { Allocator.base; allocated; _ } ->
    check "the old object stays live" true (allocated && base = p)
  | None -> Alcotest.fail "the old object is gone");
  Alcotest.(check string)
    "its bytes are intact" pattern
    (Mem.read_bytes a.Allocator.mem ~addr:p ~len:(String.length pattern))

(* A wrapper over an exhausted DieHard class: the NULL touches no
   memory (no canary fill, no rescue zeroing) and no wrapper state. *)
let test_wrapper_silent s sz () =
  let a = s.make () in
  exhaust a ignore sz;
  let stats = Mem.stats a.Allocator.mem in
  check "NULL" true (malloc a sz = null);
  let after = Mem.stats a.Allocator.mem in
  check_int "no read" stats.Mem.reads after.Mem.reads;
  check_int "no write" stats.Mem.writes after.Mem.writes;
  a.Allocator.free null

let test_trace_records_nothing () =
  let t, a = Dh_alloc.Trace.wrap (diehard ()) in
  exhaust a ignore 4096;
  let n = Dh_alloc.Trace.clock t in
  check "NULL" true (malloc a 4096 = null);
  check_int "no clock tick for a NULL" n (Dh_alloc.Trace.clock t)

let test_canary_records_nothing () =
  let t, a = Dh_alloc.Canary.wrap (diehard ()) in
  exhaust a ignore 4096;
  check "NULL" true (malloc a 4096 = null);
  (* A canary kept for address 0 would fault the sweep's read. *)
  Dh_alloc.Canary.sweep t;
  check_int "no violation" 0 (List.length (Dh_alloc.Canary.violations t))

(* The injector's allocation clock counts successful mallocs only: with
   the first object scheduled to be freed early at clock [n + 1], it is
   still live after the NULLs and freed by the next success. *)
let test_injector_clock () =
  let inner = diehard () in
  let n = Config.threshold config ~class_:9 in
  let spec = { Dh_fault.Injector.nothing with dangling_rate = 1.0; dangling_distance = 1 } in
  let log = [ { Dh_alloc.Trace.alloc_time = 1; free_time = n + 2; size = 4096 } ] in
  let a = Dh_fault.Injector.wrap spec ~log inner in
  let first = malloc a 4096 in
  exhaust a ignore 4096;
  for _ = 1 to 3 do
    check "NULL" true (malloc a 4096 = null)
  done;
  let live p =
    match inner.Allocator.find_object p with Some o -> o.Allocator.allocated | None -> false
  in
  check "the NULLs advance no clock" true (live first);
  ignore (malloc a 16);
  check "the next success does" false (live first)

let suite =
  List.concat_map
    (fun s ->
      let case what f = Alcotest.test_case (Printf.sprintf "%s: %s" s.name what) `Quick f in
      [ case "invalid size is NULL" (test_invalid_size s);
        case "realloc NULL n is malloc n" (test_realloc_null s);
        case "realloc p 0 frees p" (test_realloc_zero s) ]
      @
      match s.exhausts with
      | None -> []
      | Some sz ->
        [ case "exhaustion returns NULL" (test_exhaustion s sz);
          case "failed realloc keeps the object" (test_failed_realloc s sz) ])
    subjects
  @ List.filter_map
      (fun s ->
        match (s.name, s.exhausts) with
        | ("rescue" | "canary" | "trace" | "injector"), Some sz ->
          Some (Alcotest.test_case (s.name ^ ": a NULL touches no memory") `Quick (test_wrapper_silent s sz))
        | _ -> None)
      subjects
  @ [
      Alcotest.test_case "trace: a NULL records no event" `Quick test_trace_records_nothing;
      Alcotest.test_case "canary: a NULL keeps no canary" `Quick test_canary_records_nothing;
      Alcotest.test_case "injector: a NULL advances no clock" `Quick test_injector_clock;
    ]
