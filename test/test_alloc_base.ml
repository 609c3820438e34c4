(* Tests for the allocator substrate: size classes, bitmaps and stats. *)

open Dh_alloc

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- size classes --- *)

let test_class_geometry () =
  check_int "twelve classes" 12 Size_class.count;
  check_int "max" 16384 Size_class.max_size;
  for c = 0 to Size_class.count - 1 do
    check_int "size is 8<<c" (8 lsl c) (Size_class.size c)
  done

let test_of_size_boundaries () =
  let cases =
    [ (1, 0); (8, 0); (9, 1); (16, 1); (17, 2); (24, 2); (32, 2); (33, 3);
      (4096, 9); (4097, 10); (16384, 11) ]
  in
  List.iter
    (fun (sz, expected) ->
      match Size_class.of_size sz with
      | Some c -> check_int (Printf.sprintf "class of %d" sz) expected c
      | None -> Alcotest.fail (Printf.sprintf "size %d should be small" sz))
    cases

let test_of_size_large () =
  check "16K+1 is large" true (Size_class.of_size 16385 = None);
  check "zero invalid" true (Size_class.of_size 0 = None);
  check "negative invalid" true (Size_class.of_size (-1) = None)

let test_of_size_matches_naive () =
  (* The shifted form must agree with the naive ceil(log2)-3 formula,
     and with the one-bit-per-step scan of (sz - 1) that the halving
     steps replaced. *)
  let bit_scan sz =
    let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + 1) in
    max 0 ((if sz <= 1 then 0 else go (sz - 1) 0) - 3)
  in
  for sz = 1 to 16384 do
    let naive =
      let rec go c = if 8 lsl c >= sz then c else go (c + 1) in
      go 0
    in
    check_int (Printf.sprintf "size %d" sz) naive (Size_class.of_size_exn sz);
    check_int (Printf.sprintf "size %d, bit scan" sz) (bit_scan sz) (Size_class.of_size_exn sz)
  done

let test_round_up () =
  (* a small request reserves its class's whole slot *)
  let reserved sz = Size_class.size (Size_class.of_size_exn sz) in
  check_int "1 -> 8" 8 (reserved 1);
  check_int "9 -> 16" 16 (reserved 9);
  check_int "16384 -> 16384" 16384 (reserved 16384)

(* Every range check raises with its message, whatever the compiler
   inlines into the callers. *)
let test_class_range_checks () =
  let bad_class = Invalid_argument "Size_class.size: bad class" in
  Alcotest.check_raises "size (-1)" bad_class (fun () -> ignore (Size_class.size (-1)));
  Alcotest.check_raises "size count" bad_class (fun () ->
      ignore (Size_class.size Size_class.count));
  let not_small = Invalid_argument "Size_class.of_size_exn: not a small-object size" in
  Alcotest.check_raises "of_size_exn 0" not_small (fun () -> ignore (Size_class.of_size_exn 0));
  Alcotest.check_raises "of_size_exn (-1)" not_small (fun () ->
      ignore (Size_class.of_size_exn (-1)));
  Alcotest.check_raises "of_size_exn (max_size + 1)" not_small (fun () ->
      ignore (Size_class.of_size_exn (Size_class.max_size + 1)))

let test_is_aligned () =
  check "0 aligned" true (Size_class.is_aligned ~offset:0 ~class_:3);
  check "64 aligned for class 3" true (Size_class.is_aligned ~offset:64 ~class_:3);
  check "60 not aligned for class 3" false (Size_class.is_aligned ~offset:60 ~class_:3);
  (* mask form must agree with modulus for a sweep of offsets *)
  for off = 0 to 1000 do
    check "mask = mod" (off mod 32 = 0) (Size_class.is_aligned ~offset:off ~class_:2)
  done

(* --- bitmap --- *)

let test_bitmap_basic () =
  let b = Bitmap.create 100 in
  check_int "empty" 0 (Bitmap.cardinal b);
  Bitmap.set b 0;
  Bitmap.set b 63;
  Bitmap.set b 99;
  check "get set bits" true (Bitmap.get b 0 && Bitmap.get b 63 && Bitmap.get b 99);
  check "unset bit clear" false (Bitmap.get b 50);
  check_int "cardinal" 3 (Bitmap.cardinal b);
  Bitmap.clear b 63;
  check "cleared" false (Bitmap.get b 63);
  check_int "cardinal after clear" 2 (Bitmap.cardinal b)

let test_bitmap_idempotent () =
  let b = Bitmap.create 10 in
  Bitmap.set b 5;
  Bitmap.set b 5;
  check_int "double set counted once" 1 (Bitmap.cardinal b);
  Bitmap.clear b 5;
  Bitmap.clear b 5;
  check_int "double clear counted once" 0 (Bitmap.cardinal b)

let test_bitmap_bounds () =
  let b = Bitmap.create 8 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitmap: index out of range")
    (fun () -> ignore (Bitmap.get b (-1)));
  Alcotest.check_raises "past end" (Invalid_argument "Bitmap: index out of range")
    (fun () -> Bitmap.set b 8)

(* Every out-of-range index raises and leaves the bitmap as it was: the
   ends, the padding bits of the final partial byte (a 100-bit map has
   bytes for 104) and the extremes. *)
let test_bitmap_range_checks () =
  let b = Bitmap.create 100 in
  List.iter (Bitmap.set b) [ 0; 7; 96; 99 ];
  let out_of_range = Invalid_argument "Bitmap: index out of range" in
  List.iter
    (fun i ->
      let at what = Printf.sprintf "%s %d" what i in
      Alcotest.check_raises (at "get") out_of_range (fun () -> ignore (Bitmap.get b i));
      Alcotest.check_raises (at "set") out_of_range (fun () -> Bitmap.set b i);
      Alcotest.check_raises (at "clear") out_of_range (fun () -> Bitmap.clear b i);
      check_int (at "cardinal after") 4 (Bitmap.cardinal b))
    [ -1; 100; 101; 102; 103; 104; min_int; max_int ];
  let set = ref [] in
  Bitmap.iter_set b (fun i -> set := i :: !set);
  Alcotest.(check (list int)) "set bits unchanged" [ 0; 7; 96; 99 ] (List.rev !set)

let test_bitmap_iter_set () =
  let b = Bitmap.create 50 in
  List.iter (Bitmap.set b) [ 3; 17; 42 ];
  let seen = ref [] in
  Bitmap.iter_set b (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "ascending order" [ 3; 17; 42 ] (List.rev !seen)

let prop_bitmap_cardinal_consistent =
  QCheck.Test.make ~name:"bitmap cardinal equals recount after random ops" ~count:200
    QCheck.(list (pair bool (int_bound 199)))
    (fun ops ->
      let b = Bitmap.create 200 in
      List.iter (fun (set, i) -> if set then Bitmap.set b i else Bitmap.clear b i) ops;
      let recount = ref 0 in
      for i = 0 to 199 do
        if Bitmap.get b i then incr recount
      done;
      !recount = Bitmap.cardinal b)

(* [Bitmap] against a [bool array] over random [get], [set] and [clear]
   calls, in range and out of it (a few indices either side): every
   result, every exception and the cardinal agree. *)
let prop_bitmap_matches_bool_array =
  QCheck.Test.make ~name:"bitmap agrees with a bool array, out-of-range calls included"
    ~count:300
    QCheck.(pair (int_bound 130) (list (pair (int_bound 2) (int_range (-10) 140))))
    (fun (n, ops) ->
      let b = Bitmap.create n in
      let model = Array.make n false in
      let in_range i = i >= 0 && i < n in
      let run f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
      let expect f = if in_range (fst f) then Ok (snd f ()) else Error "Bitmap: index out of range" in
      List.for_all
        (fun (op, i) ->
          let got, want =
            match op with
            | 0 -> (run (fun () -> Bitmap.get b i), expect (i, fun () -> model.(i)))
            | 1 ->
              ( run (fun () -> Bitmap.set b i; false),
                expect (i, fun () -> model.(i) <- true; false) )
            | _ ->
              ( run (fun () -> Bitmap.clear b i; false),
                expect (i, fun () -> model.(i) <- false; false) )
          in
          got = want
          && Bitmap.cardinal b = Array.fold_left (fun c x -> if x then c + 1 else c) 0 model)
        ops
      && Array.for_all Fun.id (Array.mapi (fun i x -> Bitmap.get b i = x) model))

(* --- stats --- *)

let test_stats_accounting () =
  let s = Stats.create () in
  Stats.on_malloc s ~requested:10 ~reserved:16;
  Stats.on_malloc s ~requested:100 ~reserved:128;
  check_int "mallocs" 2 s.Stats.mallocs;
  check_int "live bytes" 144 s.Stats.live_bytes;
  check_int "peak" 144 s.Stats.peak_live_bytes;
  Stats.on_free s ~reserved:16;
  check_int "live after free" 128 s.Stats.live_bytes;
  check_int "peak sticky" 144 s.Stats.peak_live_bytes;
  check_int "live objects" 1 s.Stats.live_objects

let suite =
  [
    Alcotest.test_case "size class geometry" `Quick test_class_geometry;
    Alcotest.test_case "of_size boundaries" `Quick test_of_size_boundaries;
    Alcotest.test_case "of_size large/invalid" `Quick test_of_size_large;
    Alcotest.test_case "of_size matches naive" `Quick test_of_size_matches_naive;
    Alcotest.test_case "round_up" `Quick test_round_up;
    Alcotest.test_case "size class range checks" `Quick test_class_range_checks;
    Alcotest.test_case "is_aligned" `Quick test_is_aligned;
    Alcotest.test_case "bitmap basic" `Quick test_bitmap_basic;
    Alcotest.test_case "bitmap idempotent" `Quick test_bitmap_idempotent;
    Alcotest.test_case "bitmap bounds" `Quick test_bitmap_bounds;
    Alcotest.test_case "bitmap range checks" `Quick test_bitmap_range_checks;
    Alcotest.test_case "bitmap iter_set" `Quick test_bitmap_iter_set;
    QCheck_alcotest.to_alcotest prop_bitmap_cardinal_consistent;
    QCheck_alcotest.to_alcotest prop_bitmap_matches_bool_array;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
  ]
