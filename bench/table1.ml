(* Table 1: how the different systems handle each class of memory error.

   Each error is a small MiniC program whose error *manifests* in its
   output when the runtime does not protect against it (a canary value
   goes wrong, two live objects alias, …).  Each system column is an
   allocator + access policy (see Factory.systems); the Rx column
   re-executes on a crash with the rescue allocator (pad, defer frees,
   zero-fill), mirroring Rx's rollback recovery.

   Cells report the *observed* behaviour; the paper's expected cell is
   printed alongside.  For "undefined" cells any observation is
   consistent with the paper (that is what undefined means); for "OK"
   and "abort" cells the observation should match. *)

module Process = Dh_mem.Process
module Program = Dh_alloc.Program

type error_case = {
  row : string;  (** Row label, as in the paper. *)
  source : string;  (** MiniC program containing the error. *)
  expected : string;  (** Output when the error is fully masked. *)
  paper : string list;  (** The paper's cells, one per system column. *)
}

(* Paper cells in column order: GNU libc, BDW GC, CCured, Rx, FailObliv,
   DieHard. *)
let cases =
  [
    {
      row = "heap metadata overwrite";
      (* Free q, then overflow p into q's (freed) chunk header and link
         words; the next allocation walks the corrupted metadata. *)
      source =
        {|fn main() {
            var p = malloc(64);
            var q = malloc(64);
            free(q);
            p[8] = 1099511627777;
            p[9] = 1099511627776;
            var s = malloc(64);
            s[0] = 5;
            if (s[0] == 5) { print_str("OK"); } else { print_str("BAD"); }
          }|};
      expected = "OK";
      paper = [ "undefined"; "undefined"; "abort"; "OK"; "undefined"; "OK" ];
    };
    {
      row = "invalid frees";
      (* Interior-pointer free; in-band allocators interpret the bytes
         before it as a header and clobber the canary words. *)
      source =
        {|fn main() {
            var p = malloc(64);
            for (var i = 0; i < 8; i = i + 1) { p[i] = 1000 + i; }
            free(p + 8);
            var q = malloc(24);
            q[0] = 777;
            var ok = 1;
            for (var i = 0; i < 8; i = i + 1) {
              if (p[i] != 1000 + i) { ok = 0; }
            }
            if (ok) { print_str("OK"); } else { print_str("BAD"); }
          }|};
      expected = "OK";
      paper = [ "undefined"; "OK"; "OK"; "undefined"; "undefined"; "OK" ];
    };
    {
      row = "double frees";
      (* Freeing twice puts the chunk in its bin twice: two subsequent
         allocations alias. *)
      source =
        {|fn main() {
            var p = malloc(64);
            free(p);
            free(p);
            var a = malloc(64);
            var b = malloc(64);
            a[0] = 1;
            b[0] = 2;
            if (a != b && a[0] == 1) { print_str("OK"); } else { print_str("BAD"); }
          }|};
      expected = "OK";
      paper = [ "undefined"; "OK"; "OK"; "OK"; "undefined"; "OK" ];
    };
    {
      row = "dangling pointers";
      (* Read through a prematurely-freed pointer after an intervening
         allocation. *)
      source =
        {|fn main() {
            var p = malloc(64);
            p[0] = 4242;
            free(p);
            var q = malloc(64);
            q[0] = 9999;
            if (p[0] == 4242) { print_str("OK"); } else { print_str("BAD"); }
          }|};
      expected = "OK";
      paper = [ "undefined"; "OK"; "OK"; "undefined"; "undefined"; "OK*" ];
    };
    {
      row = "buffer overflows";
      (* Overflow four words past p; q's canary must survive. *)
      source =
        {|fn main() {
            var p = malloc(64);
            var q = malloc(64);
            q[0] = 31337;
            for (var i = 8; i < 12; i = i + 1) { p[i] = 666; }
            var ok = q[0] == 31337;
            free(p);
            free(q);
            var r = malloc(64);
            r[0] = 1;
            if (ok && r[0] == 1) { print_str("OK"); } else { print_str("BAD"); }
          }|};
      expected = "OK";
      paper = [ "undefined"; "undefined"; "abort"; "undefined"; "undefined"; "OK*" ];
    };
    {
      row = "uninitialized reads";
      (* Output depends on never-written heap memory.  Stand-alone
         systems cannot see the error; replicated DieHard detects the
         divergence and terminates (the paper's "abort*"). *)
      source =
        {|fn main() {
            var p = malloc(64);
            print_int(p[0] & 1);
            print_str(" OK");
          }|};
      expected = "0 OK";
      paper = [ "undefined"; "undefined"; "abort"; "undefined"; "undefined"; "abort*" ];
    };
  ]

(* A run's cell word: the fault campaign's classification of it. *)
let classify ~expected result =
  match Dh_fault.Campaign.classify ~reference:expected result with
  | Dh_fault.Campaign.Correct -> "OK"
  | Wrong_output -> "wrong-output"
  | Crashed -> "crash"
  | Aborted -> "abort"
  | Timed_out -> "hang"

let run_case_under (system : Factory.system) case =
  let program = Dh_lang.Interp.program_of_source ~name:case.row case.source in
  let alloc, policy_kind = system.Factory.make () in
  let result = Program.run ~policy_kind ~fuel:5_000_000 program alloc in
  match result.Process.outcome with
  | Process.Crashed _ when system.Factory.rx_retry ->
    (* Rx: roll back (deterministic re-execution from the start) and
       re-run on a fresh heap with the rescue allocator. *)
    let alloc, policy_kind = system.Factory.make () in
    let rescued = Dh_alloc.Rescue.wrap alloc in
    let retried = Program.run ~policy_kind ~fuel:5_000_000 program rescued in
    classify ~expected:case.expected retried
  | _ -> classify ~expected:case.expected result

(* The DieHard column of the uninitialized-read row runs the replicated
   mode: detection = all replicas disagree. *)
let diehard_replicated_uninit case =
  let program = Dh_lang.Interp.program_of_source ~name:case.row case.source in
  let report =
    Diehard.Replicated.run
      ~config:(Diehard.Config.v ~heap_size:(12 * 256 * 1024) ())
      ~replicas:3 program
  in
  match report.Diehard.Replicated.verdict with
  | Diehard.Replicated.Uninit_read_detected -> "abort(detected)"
  | Diehard.Replicated.Agreed -> "OK"
  | Diehard.Replicated.No_quorum -> "no-quorum"
  | Diehard.Replicated.All_died -> "crash"

let run ~quick () =
  ignore quick;
  Report.heading "Table 1: how systems handle memory-safety errors (observed vs paper)";
  Report.note "each cell is observed/paper; 'undefined' in the paper admits any observation";
  Report.note "DieHard cells marked * in the paper are probabilistic guarantees";
  let systems = Factory.systems ~seed:7 in
  let header = "error" :: List.map (fun s -> s.Factory.label) systems in
  let rows =
    List.map
      (fun case ->
        let cells =
          List.map2
            (fun system paper ->
              let observed =
                if case.row = "uninitialized reads" && system.Factory.label = "DieHard"
                then diehard_replicated_uninit case
                else run_case_under system case
              in
              Printf.sprintf "%s/%s" observed paper)
            systems case.paper
        in
        case.row :: cells)
      cases
  in
  Report.table ~header rows;
  Report.note
    "Rx retries on crashes only: silently-wrong executions stand, which is the";
  Report.note "unsoundness the paper itself points out for Rx (Section 8).";
  Report.note
    "DieHard's dangling/overflow cells are probabilistic: re-run with other seeds";
  Report.note "to see occasional misses, quantified by Figure 4."
