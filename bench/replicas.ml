(* §6.3 and §7.2.3: the replicated runtime.

   - Uninitialized-read detection rates for B bits x k replicas,
     measured by actually running a B-bit-leaking program under the
     replicated runtime, against Theorem 3.
   - Replica-count scaling (the paper runs 16 replicas on a 16-way
     SunFire and sees ~50% overhead over one replica; our simulation is
     single-core, so the honest comparison is per-replica cost — we
     report total and per-replica time versus 1 replica). *)

module Theorems = Dh_analysis.Theorems
module Process = Dh_mem.Process
module Program = Dh_alloc.Program

(* A program whose output is B bits of uninitialized heap memory. *)
let leak_program bits =
  Dh_lang.Interp.program_of_source ~name:(Printf.sprintf "leak%d" bits)
    (Printf.sprintf
       {|fn main() {
           var p = malloc(64);
           print_int(p[0] & %d);
         }|}
       ((1 lsl bits) - 1))

let small_config = lazy (Diehard.Config.v ~heap_size:(12 * 256 * 1024) ())

let detection_rate ~bits ~replicas ~trials ~pool =
  let detected = ref 0 in
  for _ = 1 to trials do
    let report =
      Diehard.Replicated.run ~config:(Lazy.force small_config) ~replicas
        ~seed_pool:pool (leak_program bits)
    in
    match report.Diehard.Replicated.verdict with
    | Diehard.Replicated.Uninit_read_detected -> incr detected
    | Diehard.Replicated.Agreed | Diehard.Replicated.No_quorum
    | Diehard.Replicated.All_died ->
      ()
  done;
  float_of_int !detected /. float_of_int trials

let uninit_table ~trials =
  Report.heading "Section 6.3: uninitialized-read detection (replicated mode)";
  Report.note
    "a replica prints B bits of uninitialized memory; detection = all replicas differ";
  Report.note "analytic = Theorem 3; measured over %d runs" trials;
  let pool = Dh_rng.Seed.create ~master:0xBEEF in
  let rows =
    List.map
      (fun bits ->
        Printf.sprintf "B=%d bits" bits
        :: List.concat_map
             (fun replicas ->
               let analytic = Theorems.uninit_detect_probability ~bits ~replicas in
               let measured = detection_rate ~bits ~replicas ~trials ~pool in
               [ Report.pct analytic; Report.pct measured ])
             [ 3; 4 ])
      [ 1; 2; 4; 8 ]
  in
  Report.table
    ~header:[ "width"; "k=3"; "(meas)"; "k=4"; "(meas)" ]
    rows

(* The scaling rows are wall-clock and the core count is this
   machine's, so the section prints to stderr. *)
let scaling ~runs =
  Report.on_stderr @@ fun () ->
  Report.heading "Section 7.2.3: replicated-mode scaling (espresso-sim)";
  let cores = Dh_parallel.Pool.default_jobs () in
  Report.note
    "the paper runs replicas concurrently on a 16-way SMP; replicas now run on";
  Report.note
    "OCaml domains through Dh_parallel (%d core%s available here), so we report"
    cores
    (if cores = 1 then "" else "s");
  Report.note
    "sequential (jobs=1) and parallel (jobs=min(k, cores)) wall-clock per k";
  let program = Dh_workload.Apps.espresso () in
  let time_for ~jobs replicas =
    Report.time_median ~runs (fun () ->
        Diehard.Replicated.run
          ~config:(Diehard.Config.v ~heap_size:(12 * 256 * 1024) ~jobs ())
          ~replicas
          ~seed_pool:(Dh_rng.Seed.create ~master:42)
          program)
  in
  let base = time_for ~jobs:1 1 in
  let rows =
    List.map
      (fun k ->
        let seq = time_for ~jobs:1 k in
        let par = time_for ~jobs:(min k cores) k in
        [
          string_of_int k;
          Printf.sprintf "%.3f s" seq;
          Printf.sprintf "%.3f s" par;
          Report.f2 (seq /. par);
          Report.f2 (par /. base);
        ])
      [ 1; 3; 8; 16 ]
  in
  Report.table
    ~header:
      [ "replicas"; "sequential"; "parallel"; "speedup"; "parallel vs 1 replica" ]
    rows

(* The agreement check at 16 replicas: deterministic, so on stdout. *)
let verdict_16 () =
  Report.heading "Section 7.2.3: 16 replicas of espresso-sim";
  let report =
    Diehard.Replicated.run ~config:(Lazy.force small_config) ~replicas:16
      ~seed_pool:(Dh_rng.Seed.create ~master:99)
      (Dh_workload.Apps.espresso ())
  in
  Report.note "16-replica espresso-sim verdict: %s"
    (match report.Diehard.Replicated.verdict with
    | Diehard.Replicated.Agreed -> "all replicas agreed; output committed"
    | Diehard.Replicated.Uninit_read_detected -> "uninitialized read detected"
    | Diehard.Replicated.No_quorum -> "no quorum"
    | Diehard.Replicated.All_died -> "all replicas died")

let lindsay_detection () =
  Report.heading "Section 7.2.3: lindsay's uninitialized read";
  Report.note
    "the paper excludes lindsay from the 16-replica runs because it \"has an";
  Report.note "uninitialized read error that DieHard detects and terminates\"";
  let standalone =
    Diehard.Replicated.run_program_once ~config:(Lazy.force small_config)
      (Dh_workload.Apps.lindsay ())
  in
  let replicated =
    Diehard.Replicated.run ~config:(Lazy.force small_config) ~replicas:3
      (Dh_workload.Apps.lindsay ())
  in
  Report.table ~header:[ "mode"; "outcome" ]
    [
      [ "stand-alone"; Process.outcome_to_string standalone.Process.outcome ];
      [
        "replicated (k=3)";
        (match replicated.Diehard.Replicated.verdict with
        | Diehard.Replicated.Uninit_read_detected ->
          "uninitialized read detected; terminated"
        | Diehard.Replicated.Agreed -> "agreed (undetected!)"
        | Diehard.Replicated.No_quorum -> "no quorum"
        | Diehard.Replicated.All_died -> "all died");
      ];
    ];
  (* §9: heap differencing pinpoints the error without a crash *)
  Report.subheading "9: pinpointing the bug by heap differencing";
  let report =
    Diehard.Diagnose.run ~config:(Lazy.force small_config) ~replicas:3
      (Dh_workload.Apps.lindsay ())
  in
  Format.printf "%a" Diehard.Diagnose.pp_report report;
  Report.note
    "(the flagged word is state[15], the off-by-one the program never initializes)"

let run ~quick () =
  uninit_table ~trials:(if quick then 30 else 100);
  scaling ~runs:(if quick then 1 else 3);
  verdict_16 ();
  lindsay_detection ()
