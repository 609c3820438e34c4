(* Tests for the §6 analytical results: formula implementations checked
   against the spot values quoted in the paper, edge cases, and agreement
   with small Monte-Carlo simulations. *)

open Dh_analysis

let check = Alcotest.(check bool)

let near ?(eps = 1e-9) expected got msg =
  check (Printf.sprintf "%s (want %.6f, got %.6f)" msg expected got) true
    (abs_float (expected -. got) < eps)

(* --- Theorem 1: buffer overflow masking --- *)

let test_overflow_paper_spot_values () =
  (* "when the heap is no more than 1/8 full, DieHard in stand-alone mode
     provides an 87.5% chance of masking a single-object overflow" *)
  near 0.875
    (Theorems.overflow_mask_probability ~free_fraction:(7. /. 8.) ~objects:1 ~replicas:1)
    "1/8 full, k=1";
  (* "while three replicas avoids such errors with greater than 99%
     probability" *)
  let p3 =
    Theorems.overflow_mask_probability ~free_fraction:(7. /. 8.) ~objects:1 ~replicas:3
  in
  check "k=3 above 99%" true (p3 > 0.99)

let test_overflow_monotone_in_replicas () =
  let p k =
    Theorems.overflow_mask_probability ~free_fraction:0.5 ~objects:1 ~replicas:k
  in
  check "more replicas help" true (p 3 > p 1 && p 4 > p 3 && p 6 > p 5)

let test_overflow_monotone_in_size () =
  let p o =
    Theorems.overflow_mask_probability ~free_fraction:0.5 ~objects:o ~replicas:1
  in
  check "bigger overflows worse" true (p 1 > p 2 && p 2 > p 4)

let test_overflow_extremes () =
  near 1.
    (Theorems.overflow_mask_probability ~free_fraction:1.0 ~objects:5 ~replicas:1)
    "empty heap always masks";
  near 0.
    (Theorems.overflow_mask_probability ~free_fraction:0.0 ~objects:1 ~replicas:1)
    "full heap never masks";
  near 1.
    (Theorems.overflow_mask_probability ~free_fraction:0.3 ~objects:0 ~replicas:1)
    "zero-length overflow always benign"

let test_overflow_k2_rejected () =
  Alcotest.check_raises "k=2 excluded"
    (Invalid_argument "Theorems: k = 2 is excluded (voter cannot break ties)")
    (fun () ->
      ignore
        (Theorems.overflow_mask_probability ~free_fraction:0.5 ~objects:1 ~replicas:2))

let test_overflow_matches_monte_carlo () =
  (* Direct simulation of the theorem's model: O objects land uniformly
     in a heap with free fraction F/H; mask iff all land on free space in
     at least one of k replicas. *)
  let rng = Dh_rng.Mwc.create ~seed:4242 in
  let simulate ~free_fraction ~objects ~replicas ~trials =
    let masked = ref 0 in
    for _ = 1 to trials do
      let replica_ok () =
        let ok = ref true in
        for _ = 1 to objects do
          if Dh_rng.Mwc.float01 rng >= free_fraction then ok := false
        done;
        !ok
      in
      let any = ref false in
      for _ = 1 to replicas do
        if replica_ok () then any := true
      done;
      if !any then incr masked
    done;
    float_of_int !masked /. float_of_int trials
  in
  List.iter
    (fun (f, o, k) ->
      let analytic =
        Theorems.overflow_mask_probability ~free_fraction:f ~objects:o ~replicas:k
      in
      let mc = simulate ~free_fraction:f ~objects:o ~replicas:k ~trials:20_000 in
      near ~eps:0.015 analytic mc (Printf.sprintf "f=%.2f O=%d k=%d" f o k))
    [ (0.875, 1, 1); (0.5, 1, 3); (0.5, 2, 1); (0.75, 3, 4) ]

(* --- Theorem 2: dangling pointer masking --- *)

let test_dangling_paper_spot_value () =
  (* "the stand-alone version of DieHard has greater than a 99.5% chance
     of masking an 8-byte object that was freed 10,000 allocations too
     soon" — default config: 384 MB heap, 12 regions, M = 2. *)
  let free_slots = 384 * 1024 * 1024 / 12 / 2 / 8 in
  let p =
    Theorems.dangling_mask_probability ~allocations:10_000 ~free_slots ~replicas:1
  in
  check "8-byte object, 10k allocs: > 99.5%" true (p > 0.995)

let test_dangling_monotone () =
  let p ~a ~s =
    Theorems.dangling_mask_probability ~allocations:a ~free_slots:(1_000_000 / s)
      ~replicas:1
  in
  check "more intervening allocations hurt" true (p ~a:100 ~s:8 > p ~a:10_000 ~s:8);
  check "bigger objects hurt" true (p ~a:1000 ~s:8 > p ~a:1000 ~s:256)

let test_dangling_replicas_help () =
  let p k = Theorems.dangling_mask_probability ~allocations:500 ~free_slots:1000 ~replicas:k in
  check "replicas raise the bound" true (p 3 > p 1)

let test_dangling_clamped () =
  near 0.
    (Theorems.dangling_mask_probability ~allocations:5000 ~free_slots:1000 ~replicas:1)
    "A > Q: bound clamps to 0";
  near 1.
    (Theorems.dangling_mask_probability ~allocations:0 ~free_slots:1000 ~replicas:1)
    "no intervening allocations: certain"

let test_dangling_matches_monte_carlo () =
  (* Simulate the worst-case model of the proof: A allocations land on
     distinct random slots out of Q (sampling without replacement);
     masked iff the victim slot was never chosen. *)
  let rng = Dh_rng.Mwc.create ~seed:777 in
  let q = 500 and a = 100 in
  let trials = 20_000 in
  let masked = ref 0 in
  for _ = 1 to trials do
    (* victim is slot 0; draw a distinct slots *)
    let hit = ref false in
    let chosen = Array.make q false in
    let drawn = ref 0 in
    while !drawn < a do
      let s = Dh_rng.Mwc.below rng q in
      if not chosen.(s) then begin
        chosen.(s) <- true;
        incr drawn;
        if s = 0 then hit := true
      end
    done;
    if not !hit then incr masked
  done;
  let mc = float_of_int !masked /. float_of_int trials in
  let analytic =
    Theorems.dangling_mask_probability ~allocations:a ~free_slots:q ~replicas:1
  in
  near ~eps:0.015 analytic mc "A=100 Q=500"

(* --- Theorem 3: uninitialized read detection --- *)

let test_uninit_paper_spot_values () =
  (* "the probability of detecting an uninitialized read of four bits
     across three replicas is 82%, while for four replicas it drops to
     66.7%" *)
  near ~eps:0.005 0.8203 (Theorems.uninit_detect_probability ~bits:4 ~replicas:3)
    "B=4, k=3";
  near ~eps:0.005 0.6665 (Theorems.uninit_detect_probability ~bits:4 ~replicas:4)
    "B=4, k=4";
  (* "The odds of detecting an uninitialized read of 16 bits drops from
     99.995% for three replicas to 99.99% for four" *)
  check "B=16 k=3" true (Theorems.uninit_detect_probability ~bits:16 ~replicas:3 > 0.9999);
  check "B=16 k=4" true (Theorems.uninit_detect_probability ~bits:16 ~replicas:4 > 0.999)

let test_uninit_exact_small_case () =
  (* B=1, k=2: 2!/0! / 2^2 = 1/2. *)
  near 0.5 (Theorems.uninit_detect_probability ~bits:1 ~replicas:2) "B=1 k=2";
  (* pigeonhole: 3 replicas cannot all differ on 1 bit *)
  near 0. (Theorems.uninit_detect_probability ~bits:1 ~replicas:3) "B=1 k=3"

let test_uninit_single_replica () =
  near 1. (Theorems.uninit_detect_probability ~bits:8 ~replicas:1) "k=1 trivially 1"

let test_uninit_large_bits_no_overflow () =
  let p = Theorems.uninit_detect_probability ~bits:256 ~replicas:8 in
  check "well-defined for huge B" true (p > 0.999999 && p <= 1.)

let test_uninit_matches_monte_carlo () =
  let rng = Dh_rng.Mwc.create ~seed:31337 in
  let bits = 4 and k = 3 in
  let trials = 50_000 in
  let detected = ref 0 in
  for _ = 1 to trials do
    let vals = List.init k (fun _ -> Dh_rng.Mwc.bits rng bits) in
    if List.length (List.sort_uniq compare vals) = k then incr detected
  done;
  let mc = float_of_int !detected /. float_of_int trials in
  near ~eps:0.01 (Theorems.uninit_detect_probability ~bits ~replicas:k) mc "B=4 k=3 MC"

(* --- expected probes / separation --- *)

let test_multiple_errors_composition () =
  near 0.25 (Theorems.multiple_errors_mask_probability [ 0.5; 0.5 ]) "two coin flips";
  near 1. (Theorems.multiple_errors_mask_probability []) "no errors: certain";
  near 0.875
    (Theorems.multiple_errors_mask_probability
       [ Theorems.overflow_mask_probability ~free_fraction:0.875 ~objects:1 ~replicas:1 ])
    "single error reduces to the base theorem";
  Alcotest.check_raises "out of range"
    (Invalid_argument "Theorems: probabilities must lie in [0,1]") (fun () ->
      ignore (Theorems.multiple_errors_mask_probability [ 1.5 ]))

let test_expected_probes () =
  near 2. (Theorems.expected_probes ~multiplier:2.) "M=2: two probes";
  near 1.3333333333 ~eps:1e-6 (Theorems.expected_probes ~multiplier:4.) "M=4";
  check "larger M fewer probes" true
    (Theorems.expected_probes ~multiplier:8. < Theorems.expected_probes ~multiplier:2.);
  (* M is the heap's float multiplier: the audit's M = 1.5 row. *)
  near 3. (Theorems.expected_probes ~multiplier:1.5) "M=1.5: three probes";
  List.iter
    (fun m ->
      Alcotest.check_raises (Printf.sprintf "M=%g" m)
        (Invalid_argument "Theorems: multiplier must be > 1") (fun () ->
          ignore (Theorems.expected_probes ~multiplier:m)))
    [ 1.; 0.5; Float.nan ]

(* --- figure generators --- *)

let test_figure_4a_shape () =
  (* Figure 4(a): a one-object overflow at heap fullness 1/8, 1/4 and
     1/2, for k = 1, 3, 4, 5 and 6 replicas. *)
  let p fullness k =
    Theorems.overflow_mask_probability ~free_fraction:(1. -. fullness) ~objects:1 ~replicas:k
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b && increasing rest
    | _ -> true
  in
  List.iter
    (fun fullness ->
      check (Printf.sprintf "row %.3f monotone in k" fullness) true
        (increasing (List.map (p fullness) [ 1; 3; 4; 5; 6 ])))
    [ 0.125; 0.25; 0.5 ];
  check "fuller heaps mask less" true (p 0.125 3 > p 0.25 3 && p 0.25 3 > p 0.5 3);
  near 0.5 (p 0.5 1) "1/2 full, one replica: 50%";
  near 0.875 (p 0.125 1) "1/8 full, one replica: 87.5%"

let test_figure_4b_shape () =
  let rows =
    Theorems.figure_4b ~heap_size:(384 lsl 20) ~multiplier:2
      ~object_sizes:[ 8; 16; 32; 64; 128; 256 ]
      ~allocations:[ 100; 1000; 10_000 ]
  in
  Alcotest.(check int) "six size rows" 6 (List.length rows);
  (* small objects are safer; fewer intervening allocations are safer *)
  let p size allocs =
    match List.assoc_opt size rows with
    | Some cells -> List.assoc allocs cells
    | None -> Alcotest.fail "missing row"
  in
  check "8B safer than 256B" true (p 8 10_000 > p 256 10_000);
  check "100 allocs safer than 10k" true (p 256 100 > p 256 10_000);
  check "paper spot: 8B/10k > 99.5%" true (p 8 10_000 > 0.995)

let test_uninit_table () =
  (* §6.3's examples: B in {4, 16} bits, k in {3, 4} replicas *)
  let p bits replicas = Theorems.uninit_detect_probability ~bits ~replicas in
  check "4-bit detection drops with replicas" true (p 4 3 > p 4 4);
  check "16-bit detection stays high" true (p 16 4 > 0.999)

let suite =
  [
    Alcotest.test_case "T1 paper spot values" `Quick test_overflow_paper_spot_values;
    Alcotest.test_case "T1 monotone in k" `Quick test_overflow_monotone_in_replicas;
    Alcotest.test_case "T1 monotone in O" `Quick test_overflow_monotone_in_size;
    Alcotest.test_case "T1 extremes" `Quick test_overflow_extremes;
    Alcotest.test_case "T1 k=2 rejected" `Quick test_overflow_k2_rejected;
    Alcotest.test_case "T1 vs Monte Carlo" `Quick test_overflow_matches_monte_carlo;
    Alcotest.test_case "T2 paper spot value" `Quick test_dangling_paper_spot_value;
    Alcotest.test_case "T2 monotonicity" `Quick test_dangling_monotone;
    Alcotest.test_case "T2 replicas help" `Quick test_dangling_replicas_help;
    Alcotest.test_case "T2 clamping" `Quick test_dangling_clamped;
    Alcotest.test_case "T2 vs Monte Carlo" `Quick test_dangling_matches_monte_carlo;
    Alcotest.test_case "T3 paper spot values" `Quick test_uninit_paper_spot_values;
    Alcotest.test_case "T3 exact small case" `Quick test_uninit_exact_small_case;
    Alcotest.test_case "T3 single replica" `Quick test_uninit_single_replica;
    Alcotest.test_case "T3 large B stable" `Quick test_uninit_large_bits_no_overflow;
    Alcotest.test_case "T3 vs Monte Carlo" `Quick test_uninit_matches_monte_carlo;
    Alcotest.test_case "multiple errors compose" `Quick test_multiple_errors_composition;
    Alcotest.test_case "expected probes" `Quick test_expected_probes;
    Alcotest.test_case "figure 4a shape" `Quick test_figure_4a_shape;
    Alcotest.test_case "figure 4b shape" `Quick test_figure_4b_shape;
    Alcotest.test_case "uninit table" `Quick test_uninit_table;
  ]
