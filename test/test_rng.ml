(* Tests for the Marsaglia multiply-with-carry RNG, the seed pool and the
   distribution samplers. *)

open Dh_rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Mwc --- *)

let test_determinism () =
  let a = Mwc.create ~seed:42 and b = Mwc.create ~seed:42 in
  for _ = 1 to 1000 do
    check_int "same stream" (Mwc.next_u32 a) (Mwc.next_u32 b)
  done

let test_seed_sensitivity () =
  let a = Mwc.create ~seed:1 and b = Mwc.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Mwc.next_u32 a <> Mwc.next_u32 b then differs := true
  done;
  check "different seeds diverge" true !differs

let test_range () =
  let rng = Mwc.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Mwc.next_u32 rng in
    check "in [0, 2^32)" true (v >= 0 && v < 1 lsl 32)
  done

let test_below_bounds () =
  let rng = Mwc.create ~seed:11 in
  List.iter
    (fun n ->
      for _ = 1 to 1000 do
        let v = Mwc.below rng n in
        check "below n" true (v >= 0 && v < n)
      done)
    [ 1; 2; 3; 7; 100; 1 lsl 20 ]

let test_below_uniformity () =
  (* Chi-square-ish sanity: 10 buckets, 100k draws, each bucket within
     15% of the expectation. *)
  let rng = Mwc.create ~seed:13 in
  let buckets = Array.make 10 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let v = Mwc.below rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i count ->
      let expected = draws / 10 in
      check
        (Printf.sprintf "bucket %d balanced (%d)" i count)
        true
        (abs (count - expected) < expected * 15 / 100))
    buckets

let test_below_one () =
  let rng = Mwc.create ~seed:3 in
  for _ = 1 to 100 do
    check_int "below 1 is 0" 0 (Mwc.below rng 1)
  done

let test_below_invalid () =
  let rng = Mwc.create ~seed:3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Mwc.below: bound must be positive")
    (fun () -> ignore (Mwc.below rng 0))

let test_copy_independent () =
  let a = Mwc.create ~seed:5 in
  ignore (Mwc.next_u32 a);
  let b = Mwc.copy a in
  check_int "copies agree" (Mwc.next_u32 a) (Mwc.next_u32 b);
  ignore (Mwc.next_u32 a);
  let za, _ = Mwc.state a and zb, _ = Mwc.state b in
  check "advancing one leaves the other" true (za <> zb || fst (Mwc.state a) = za)

let test_split_diverges () =
  let a = Mwc.create ~seed:9 in
  let b = Mwc.split a in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Mwc.next_u32 a = Mwc.next_u32 b then incr same
  done;
  check "split streams differ" true (!same < 5)

let test_float01 () =
  let rng = Mwc.create ~seed:21 in
  let sum = ref 0. in
  let n = 10_000 in
  for _ = 1 to n do
    let f = Mwc.float01 rng in
    check "in [0,1)" true (f >= 0. && f < 1.);
    sum := !sum +. f
  done;
  let mean = !sum /. float_of_int n in
  check "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_bits () =
  let rng = Mwc.create ~seed:23 in
  for b = 0 to 30 do
    let v = Mwc.bits rng b in
    check "bits in range" true (v >= 0 && v < 1 lsl (max b 1))
  done

let test_bool_balanced () =
  let rng = Mwc.create ~seed:29 in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Mwc.bool rng then incr trues
  done;
  check "coin roughly fair" true (abs (!trues - 5000) < 500)

(* --- Seed --- *)

let test_seed_pool_distinct () =
  let pool = Seed.create ~master:1 in
  let seen = Hashtbl.create 1000 in
  for _ = 1 to 1000 do
    let s = Seed.fresh pool in
    check "seed unseen" false (Hashtbl.mem seen s);
    Hashtbl.replace seen s ()
  done

let test_seed_pool_reproducible () =
  let a = Seed.create ~master:99 and b = Seed.create ~master:99 in
  for _ = 1 to 100 do
    check_int "same pool stream" (Seed.fresh a) (Seed.fresh b)
  done

let test_fresh_rng_streams_independent () =
  let pool = Seed.create ~master:5 in
  let r1 = Seed.fresh_rng pool and r2 = Seed.fresh_rng pool in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Mwc.next_u32 r1 = Mwc.next_u32 r2 then incr same
  done;
  check "pool-derived rngs differ" true (!same < 5)

(* --- Dist --- *)

let test_uniform_int_range () =
  let rng = Mwc.create ~seed:31 in
  for _ = 1 to 1000 do
    let v = Dist.uniform_int rng ~lo:(-5) ~hi:5 in
    check "in [lo,hi]" true (v >= -5 && v <= 5)
  done

let test_geometric_mean () =
  let rng = Mwc.create ~seed:33 in
  let p = 0.25 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let v = Dist.geometric rng ~p in
    check "non-negative" true (v >= 0);
    sum := !sum + v
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* Expected mean (1-p)/p = 3. *)
  check "geometric mean near 3" true (abs_float (mean -. 3.) < 0.2)

let test_exponential_mean () =
  let rng = Mwc.create ~seed:35 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Dist.exponential rng ~mean:10.
  done;
  let mean = !sum /. float_of_int n in
  check "exponential mean near 10" true (abs_float (mean -. 10.) < 0.5)

let test_zipf_range_and_skew () =
  let rng = Mwc.create ~seed:37 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let v = Dist.zipf rng ~n:10 ~s:1.2 in
    check "zipf in [1,n]" true (v >= 1 && v <= 10);
    counts.(v - 1) <- counts.(v - 1) + 1
  done;
  check "rank 1 most frequent" true (counts.(0) > counts.(4));
  check "rank 1 beats rank 10" true (counts.(0) > counts.(9))

let test_weighted () =
  let rng = Mwc.create ~seed:39 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Dist.weighted rng ~weights:[| 1.; 2.; 7. |] in
    counts.(i) <- counts.(i) + 1
  done;
  check "index 2 dominates" true (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  check "rough proportion" true (abs (counts.(2) - 21_000) < 2_000)

let test_weighted_zero_total () =
  let rng = Mwc.create ~seed:40 in
  Alcotest.check_raises "all-zero weights"
    (Invalid_argument "Dist.weighted: weights sum to zero") (fun () ->
      ignore (Dist.weighted rng ~weights:[| 0.; 0. |]))

let test_shuffle_permutation () =
  let rng = Mwc.create ~seed:41 in
  let a = Array.init 100 (fun i -> i) in
  Dist.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Array.iteri (fun i v -> check_int "still a permutation" i v) sorted;
  check "actually shuffled" true (a <> Array.init 100 (fun i -> i))

(* --- qcheck properties --- *)

let prop_below_in_range =
  QCheck.Test.make ~name:"Mwc.below always lands in [0,n)" ~count:500
    QCheck.(pair small_int (int_bound 1_000_000))
    (fun (seed, n) ->
      let n = n + 1 in
      let rng = Mwc.create ~seed in
      let v = Mwc.below rng n in
      v >= 0 && v < n)

let prop_uniform_int_in_range =
  QCheck.Test.make ~name:"Dist.uniform_int respects bounds" ~count:500
    QCheck.(triple small_int (int_range (-1000) 1000) (int_bound 2000))
    (fun (seed, lo, span) ->
      let hi = lo + span in
      let rng = Mwc.create ~seed in
      let v = Dist.uniform_int rng ~lo ~hi in
      v >= lo && v <= hi)

(* [Mwc.fill_bytes] is a bulk [next_u32] loop: the same bytes, least
   significant first, the same final state, and nothing written outside
   [off, off + len). *)
let prop_fill_bytes_is_next_u32_loop =
  QCheck.Test.make ~name:"Mwc.fill_bytes equals a next_u32 loop" ~count:300
    QCheck.(triple small_int (int_bound 4096) (int_range 1 15))
    (fun (seed, len, off) ->
      let bulk = Mwc.create ~seed and loop = Mwc.create ~seed in
      let got = Bytes.make (off + len + 8) '\xA5' in
      Mwc.fill_bytes bulk got ~off ~len;
      let want = Bytes.make (off + len + 8) '\xA5' in
      let i = ref 0 in
      while !i < len do
        let v = Mwc.next_u32 loop in
        for j = 0 to min 4 (len - !i) - 1 do
          Bytes.set want (off + !i + j) (Char.chr ((v lsr (8 * j)) land 0xFF))
        done;
        i := !i + 4
      done;
      Bytes.equal got want && Mwc.state bulk = Mwc.state loop)

let test_fill_bytes_invalid () =
  let rng = Mwc.create ~seed:1 and buf = Bytes.create 8 in
  List.iter
    (fun (off, len) ->
      match Mwc.fill_bytes rng buf ~off ~len with
      | () -> Alcotest.failf "off %d len %d accepted" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 2); (0, -1); (0, 9); (5, 4) ];
  check "state untouched" true (Mwc.state rng = Mwc.state (Mwc.create ~seed:1))

let suite =
  [
    Alcotest.test_case "mwc determinism" `Quick test_determinism;
    Alcotest.test_case "mwc seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "mwc range" `Quick test_range;
    Alcotest.test_case "mwc below bounds" `Quick test_below_bounds;
    Alcotest.test_case "mwc below uniformity" `Quick test_below_uniformity;
    Alcotest.test_case "mwc below 1" `Quick test_below_one;
    Alcotest.test_case "mwc below invalid" `Quick test_below_invalid;
    Alcotest.test_case "mwc copy" `Quick test_copy_independent;
    Alcotest.test_case "mwc split" `Quick test_split_diverges;
    Alcotest.test_case "mwc float01" `Quick test_float01;
    Alcotest.test_case "mwc bits" `Quick test_bits;
    Alcotest.test_case "mwc bool" `Quick test_bool_balanced;
    Alcotest.test_case "seed pool distinct" `Quick test_seed_pool_distinct;
    Alcotest.test_case "seed pool reproducible" `Quick test_seed_pool_reproducible;
    Alcotest.test_case "seed rng independence" `Quick test_fresh_rng_streams_independent;
    Alcotest.test_case "dist uniform_int" `Quick test_uniform_int_range;
    Alcotest.test_case "dist geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "dist exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "dist zipf" `Quick test_zipf_range_and_skew;
    Alcotest.test_case "dist weighted" `Quick test_weighted;
    Alcotest.test_case "dist weighted zero" `Quick test_weighted_zero_total;
    Alcotest.test_case "dist shuffle" `Quick test_shuffle_permutation;
    QCheck_alcotest.to_alcotest prop_below_in_range;
    QCheck_alcotest.to_alcotest prop_uniform_int_in_range;
    Alcotest.test_case "mwc fill_bytes invalid range" `Quick test_fill_bytes_invalid;
    QCheck_alcotest.to_alcotest prop_fill_bytes_is_next_u32_loop;
  ]
