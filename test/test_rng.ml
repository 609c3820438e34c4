(* Tests for the Marsaglia multiply-with-carry RNG, the seed pool and the
   distribution samplers. *)

open Dh_rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Mwc --- *)

(* Whether two generators are in the same state, read from what they
   draw next: copies of both give the same eight outputs. *)
let same_state a b =
  let draws t =
    let t = Mwc.copy t in
    List.init 8 (fun _ -> Mwc.next_u32 t)
  in
  draws a = draws b

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
  let skipped = Mwc.next_u32 a in
  check_int "advancing one leaves the other" skipped (Mwc.next_u32 b)

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

let test_seed_rng_streams_independent () =
  let pool = Seed.create ~master:5 in
  let r1 = Mwc.create ~seed:(Seed.fresh pool) in
  let r2 = Mwc.create ~seed:(Seed.fresh pool) in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Mwc.next_u32 r1 = Mwc.next_u32 r2 then incr same
  done;
  check "pool-derived rngs differ" true (!same < 5)

(* --- Dist --- *)

let test_geometric_mean () =
  let rng = Mwc.create ~seed:33 in
  let p = 0.25 in
  let law = Dist.geometric ~p in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let v = Dist.geometric_draw law rng in
    check "non-negative" true (v >= 0);
    sum := !sum + v
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* Expected mean (1-p)/p = 3. *)
  check "geometric mean near 3" true (abs_float (mean -. 3.) < 0.2)

let test_zipf_range_and_skew () =
  let rng = Mwc.create ~seed:37 in
  let table = Dist.zipf_table ~n:10 ~s:1.2 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let v = Dist.zipf_rank table ~h:(Mwc.bits rng 30) in
    check "zipf in [1,n]" true (v >= 1 && v <= 10);
    counts.(v - 1) <- counts.(v - 1) + 1
  done;
  check "rank 1 most frequent" true (counts.(0) > counts.(4));
  check "rank 1 beats rank 10" true (counts.(0) > counts.(9))

(* The 30-bit hash whose [h / 2^30] is [u], rounded down. *)
let hash_of u = int_of_float (u *. 0x1p30)

(* Exact ranks at two (n, s) pairs: the serve workload's Zipf keys are
   such ranks, so none of them may move. *)
let test_zipf_rank_pinned () =
  let us =
    [ 0.; 1e-9; 0.01; 0.05; 0.1; 0.15; 0.2; 0.25; 0.3; 0.35; 0.4; 0.45; 0.5; 0.55;
      0.6; 0.7; 0.8; 0.9; 0.95; 0.99; 0.999999 ]
  in
  let pin ~n ~s ranks =
    let table = Dist.zipf_table ~n ~s in
    List.iter2
      (fun u r ->
        Alcotest.(check int) (Printf.sprintf "zipf n=%d s=%g u=%g" n s u) r
          (Dist.zipf_rank table ~h:(hash_of u)))
      us ranks
  in
  pin ~n:1024 ~s:1.1
    [ 1; 1; 1; 1; 1; 1; 2; 2; 3; 4; 6; 9; 12; 17; 25; 57; 136; 355; 595; 917; 1024 ];
  pin ~n:10 ~s:1.2 [ 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 2; 2; 2; 3; 4; 5; 7; 9; 10; 10 ];
  let rejects what f = Alcotest.check_raises what (Invalid_argument what) (fun () -> ignore (f ())) in
  rejects "Dist.zipf_table: want n >= 1" (fun () -> Dist.zipf_table ~n:0 ~s:1.);
  rejects "Dist.zipf_table: want s >= 0" (fun () -> Dist.zipf_table ~n:4 ~s:(-0.5));
  let table = Dist.zipf_table ~n:4 ~s:1. in
  rejects "Dist.zipf_rank: want h in [0, 2^30)" (fun () -> Dist.zipf_rank table ~h:(1 lsl 30));
  rejects "Dist.zipf_rank: want h in [0, 2^30)" (fun () -> Dist.zipf_rank table ~h:(-1))

(* The Zipf CDF as [Dist.zipf_table] defines it, and the binary search
   [zipf_rank] once was: the first index whose CDF exceeds [u], plus 1. *)
let zipf_cdf_oracle ~n ~s =
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for k = 1 to n do
    total := !total +. (1. /. Float.pow (float_of_int k) s);
    cdf.(k - 1) <- !total
  done;
  Array.map (fun c -> c /. !total) cdf

let zipf_rank_oracle cdf ~u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo + 1

(* The serve workload's request hash, its Zipf [h]. *)
let request_hash k =
  let h = (k * 0x9E3779B9) + 0x7F4A7C15 in
  let h = (h lxor (h lsr 16)) * 0x85EBCA6B in
  (h lxor (h lsr 13)) land 0x3FFFFFFF

(* The guide-table search returns the binary search's rank, at
   [u = h / 2^30], at every place the two could part: on and beside
   each CDF value's hash and each guide bucket's edge, at both ends of
   [0, 2^30), and over a million request hashes and a million uniform
   draws. *)
let test_zipf_rank_equals_binary_search () =
  List.iter
    (fun (n, s) ->
      let table = Dist.zipf_table ~n ~s and cdf = zipf_cdf_oracle ~n ~s in
      let agree h =
        if h >= 0 && h < 1 lsl 30 then begin
          let u = float_of_int h /. 1073741824. in
          let want = zipf_rank_oracle cdf ~u and got = Dist.zipf_rank table ~h in
          if got <> want then Alcotest.failf "zipf n=%d s=%g h=%d: rank %d, want %d" n s h got want
        end
      in
      let around h =
        agree (h - 1);
        agree h;
        agree (h + 1)
      in
      Array.iter (fun c -> around (hash_of c)) cdf;
      for b = 0 to 4096 do
        around (b lsl 18)
      done;
      agree 0;
      agree ((1 lsl 30) - 1);
      for k = 0 to 999_999 do
        agree (request_hash k)
      done;
      let rng = Mwc.create ~seed:n in
      for _ = 1 to 1_000_000 do
        agree (Mwc.bits rng 30)
      done)
    [ (1024, 1.1); (10, 1.2); (1, 1.); (4, 1.); (1024, 0.); (5000, 2.5); (3, 0.5) ]

(* A hash wider than 30 bits, or a negative one, has no [u] in [0, 1):
   it is refused, at both sides of the range and far outside it. *)
let test_zipf_rank_range_check () =
  let table = Dist.zipf_table ~n:1024 ~s:1.1 in
  List.iter
    (fun h ->
      Alcotest.check_raises (Printf.sprintf "h = %d" h)
        (Invalid_argument "Dist.zipf_rank: want h in [0, 2^30)")
        (fun () -> ignore (Dist.zipf_rank table ~h)))
    [ -1; min_int; 1 lsl 30; (1 lsl 31) - 1; max_int ];
  check "the top hash has the top rank" true (Dist.zipf_rank table ~h:((1 lsl 30) - 1) = 1024)

let rec sum_ranks table acc = function
  | [] -> acc
  | h :: hs -> sum_ranks table (acc + Dist.zipf_rank table ~h) hs

(* A draw allocates nothing: no closure, no boxed bound, no boxed [u]. *)
let test_zipf_rank_allocation () =
  let table = Dist.zipf_table ~n:1024 ~s:1.1 in
  let rng = Mwc.create ~seed:43 in
  let hs = List.init 10_000 (fun _ -> Mwc.bits rng 30) in
  let before = Gc.minor_words () in
  let sum = sum_ranks table 0 hs in
  Alcotest.(check (float 0.)) "minor words for 10,000 draws" 0. (Gc.minor_words () -. before);
  check "drew ranks" true (sum >= 10_000)

let test_weighted () =
  let rng = Mwc.create ~seed:39 in
  let counts = Array.make 3 0 in
  let mix = Dist.size_class_mix ~classes:[| (8, 1.); (16, 2.); (32, 7.) |] in
  for _ = 1 to 30_000 do
    let i = match Dist.size_class_draw mix rng with 8 -> 0 | 16 -> 1 | _ -> 2 in
    counts.(i) <- counts.(i) + 1
  done;
  check "index 2 dominates" true (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  check "rough proportion" true (abs (counts.(2) - 21_000) < 2_000)

let test_weighted_zero_total () =
  Alcotest.check_raises "all-zero weights"
    (Invalid_argument "Dist.size_class_mix: weights sum to zero") (fun () ->
      ignore (Dist.size_class_mix ~classes:[| (8, 0.); (16, 0.) |]))

(* The formula [size_class_mix] had when it mapped the weights out,
   folded them and picked recursively: kept as the oracle its loops must
   match draw for draw. *)
let size_class_mix_oracle rng ~classes =
  let weights = Array.map snd classes in
  let total = Array.fold_left ( +. ) 0. weights in
  if total <= 0. then invalid_arg "Dist.size_class_mix: weights sum to zero";
  let u = Mwc.float01 rng *. total in
  let n = Array.length weights in
  let rec pick i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if u < acc then i else pick (i + 1) acc
  in
  fst classes.(pick 0 0.)

let test_weighted_matches_oracle () =
  let mixes =
    [| (8, 1.); (16, 2.); (32, 7.) |]
    :: [| (64, 3.) |]
    :: [| (8, 0.); (16, 1.); (24, 0.); (32, 0.5); (40, 0.) |]
    :: [| (8, 0.1); (16, 0.2); (24, 0.3) |]
    :: List.map (fun p -> p.Dh_workload.Profile.sizes) Dh_workload.Profile.all
  in
  List.iteri
    (fun m classes ->
      let rng = Mwc.create ~seed:(41 + m) and oracle = Mwc.create ~seed:(41 + m) in
      let mix = Dist.size_class_mix ~classes in
      for _ = 1 to 10_000 do
        check_int "same pick" (size_class_mix_oracle oracle ~classes)
          (Dist.size_class_draw mix rng)
      done)
    mixes

(* The formulas the samplers had when each call recomputed its
   constants: [geometric] took [log (1. -. p)] per draw and
   [size_class_mix] re-summed its weights, both through [Mwc.float01].
   A prepared sampler must draw the very same stream. *)
let geometric_oracle rng ~p =
  if p = 1. then 0
  else
    let u = 1. -. Mwc.float01 rng in
    int_of_float (floor (log u /. log (1. -. p)))

let test_prepared_samplers_match_old_formulas () =
  List.iteri
    (fun k p ->
      let law = Dist.geometric ~p in
      let rng = Mwc.create ~seed:(60 + k) and oracle = Mwc.create ~seed:(60 + k) in
      for i = 1 to 100_000 do
        let want = geometric_oracle oracle ~p and got = Dist.geometric_draw law rng in
        if got <> want then Alcotest.failf "geometric p=%g draw %d: %d, want %d" p i got want
      done;
      check "same stream after" true (same_state rng oracle))
    [ 1.; 0.5; 0.25; 1. /. 3.; 0.05; 1. /. 800.; 1e-6 ];
  List.iteri
    (fun k (p : Dh_workload.Profile.t) ->
      let classes = p.Dh_workload.Profile.sizes in
      let mix = Dist.size_class_mix ~classes in
      let rng = Mwc.create ~seed:(70 + k) and oracle = Mwc.create ~seed:(70 + k) in
      for i = 1 to 100_000 do
        let want = size_class_mix_oracle oracle ~classes and got = Dist.size_class_draw mix rng in
        if got <> want then
          Alcotest.failf "%s draw %d: %d, want %d" p.Dh_workload.Profile.name i got want
      done)
    Dh_workload.Profile.alloc_intensive

(* One draw's boxed float at most: no weights array, closure or boxed
   running sum per call. *)
let test_weighted_allocation () =
  let rng = Mwc.create ~seed:42 in
  let mix = Dist.size_class_mix ~classes:(List.hd Dh_workload.Profile.all).Dh_workload.Profile.sizes in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sink := !sink + Dist.size_class_draw mix rng
  done;
  let words = Gc.minor_words () -. before in
  check "<= 2 minor words per call" true (words <= 2. *. 10_000.);
  check "drew sizes" true (!sink > 0)

(* A geometric or size-class draw allocates nothing: its uniform is
   [Mwc.float01], inlined from another module, so the float never boxes.
   That holds only under the release profile that [dune-workspace]
   selects: the dev profile compiles every module with [-opaque], and
   each draw then boxes the returned float, 20,000 words per 10,000
   draws.  Dropping the workspace file fails this test, together with
   the driver's minor-word pins. *)
let test_draws_allocate_nothing () =
  let rng = Mwc.create ~seed:44 in
  let lifetime = Dist.geometric ~p:0.01 in
  let mix = Dist.size_class_mix ~classes:(List.hd Dh_workload.Profile.all).Dh_workload.Profile.sizes in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sink := !sink + Dist.geometric_draw lifetime rng
  done;
  let geometric_words = Gc.minor_words () -. before in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sink := !sink + Dist.size_class_draw mix rng
  done;
  let size_words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 10,000 geometric draws" 0. geometric_words;
  Alcotest.(check (float 0.)) "minor words for 10,000 size-class draws" 0. size_words;
  check "drew values" true (!sink > 0)

(* --- qcheck properties --- *)

let prop_below_in_range =
  QCheck.Test.make ~name:"Mwc.below always lands in [0,n)" ~count:500
    QCheck.(pair small_int (int_bound 1_000_000))
    (fun (seed, n) ->
      let n = n + 1 in
      let rng = Mwc.create ~seed in
      let v = Mwc.below rng n in
      v >= 0 && v < n)

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
      Bytes.equal got want && same_state bulk loop)

let test_fill_bytes_invalid () =
  let rng = Mwc.create ~seed:1 and buf = Bytes.create 8 in
  List.iter
    (fun (off, len) ->
      match Mwc.fill_bytes rng buf ~off ~len with
      | () -> Alcotest.failf "off %d len %d accepted" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 2); (0, -1); (0, 9); (5, 4) ];
  check "state untouched" true (same_state rng (Mwc.create ~seed:1))

(* A power-of-two bound takes a branch without the rejection loop's
   division; every bound must still draw exactly the rejection-sampling
   stream, kept here as the reference: draw below the largest multiple
   of [n] that fits in 32 bits, then reduce. *)
let test_below_matches_rejection () =
  let rejection t n =
    let limit = (1 lsl 32) / n * n in
    let rec draw () =
      let x = Mwc.next_u32 t in
      if x < limit then x mod n else draw ()
    in
    draw ()
  in
  let bounds = List.init 33 (fun k -> 1 lsl k) @ [ 3; 1000; 48_000 ] in
  List.iter
    (fun n ->
      let a = Mwc.create ~seed:n and b = Mwc.create ~seed:n in
      for i = 1 to 2_000 do
        check_int (Printf.sprintf "below %d, draw %d" n i) (rejection b n) (Mwc.below a n)
      done;
      check (Printf.sprintf "below %d: same state after the draws" n) true
        (same_state a b))
    bounds

let suite =
  [
    Alcotest.test_case "mwc determinism" `Quick test_determinism;
    Alcotest.test_case "mwc seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "mwc range" `Quick test_range;
    Alcotest.test_case "mwc below bounds" `Quick test_below_bounds;
    Alcotest.test_case "mwc below uniformity" `Quick test_below_uniformity;
    Alcotest.test_case "mwc below 1" `Quick test_below_one;
    Alcotest.test_case "mwc below invalid" `Quick test_below_invalid;
    Alcotest.test_case "mwc below = rejection stream" `Quick test_below_matches_rejection;
    Alcotest.test_case "mwc copy" `Quick test_copy_independent;
    Alcotest.test_case "mwc float01" `Quick test_float01;
    Alcotest.test_case "mwc bits" `Quick test_bits;
    Alcotest.test_case "seed pool distinct" `Quick test_seed_pool_distinct;
    Alcotest.test_case "seed pool reproducible" `Quick test_seed_pool_reproducible;
    Alcotest.test_case "seed rng independence" `Quick test_seed_rng_streams_independent;
    Alcotest.test_case "dist geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "dist zipf" `Quick test_zipf_range_and_skew;
    Alcotest.test_case "dist zipf ranks pinned" `Quick test_zipf_rank_pinned;
    Alcotest.test_case "dist zipf rank equals binary search" `Quick
      test_zipf_rank_equals_binary_search;
    Alcotest.test_case "dist zipf rank range check" `Quick test_zipf_rank_range_check;
    Alcotest.test_case "dist zipf rank allocates nothing" `Quick test_zipf_rank_allocation;
    Alcotest.test_case "dist weighted" `Quick test_weighted;
    Alcotest.test_case "dist weighted zero" `Quick test_weighted_zero_total;
    Alcotest.test_case "dist weighted matches oracle" `Quick test_weighted_matches_oracle;
    Alcotest.test_case "dist weighted allocation" `Quick test_weighted_allocation;
    Alcotest.test_case "dist geometric and size-class draws allocate nothing" `Quick
      test_draws_allocate_nothing;
    Alcotest.test_case "dist prepared samplers match old formulas" `Quick
      test_prepared_samplers_match_old_formulas;
    QCheck_alcotest.to_alcotest prop_below_in_range;
    Alcotest.test_case "mwc fill_bytes invalid range" `Quick test_fill_bytes_invalid;
    QCheck_alcotest.to_alcotest prop_fill_bytes_is_next_u32_loop;
  ]
