(* minic: the bug-free MiniC apps espresso-sim and cfrac-sim, parsed from
   source and run under Replicated.run with k = 3 replicas and jobs = 1.
   The Interp tree walk does most of the work; Heap and Mem see the
   replicated mode's random fill of regions and objects and few probes;
   the supervisor and checkpointing do nothing.  The programs read no
   input: the seed picks the replicas' heap seeds.  The reference is a
   stand-alone run of the same program on freelist-lea, whose output the
   voted output must equal byte for byte. *)

module Apps = Dh_workload.Apps
module Interp = Dh_lang.Interp
module Replicated = Diehard.Replicated
module Program = Dh_alloc.Program
module Process = Dh_mem.Process
module Allocator = Dh_alloc.Allocator

let apps = [ ("espresso-sim", Apps.espresso_source); ("cfrac-sim", Apps.cfrac_source) ]
let replicas = 3

(* 64 KiB per size-class region, as for the server: ample for these
   programs' few live objects.  The default 24 MiB heap would have every
   replica random-fill 2 MiB per region it touches, which would bury the
   interpreter under Mem.fill_random. *)
let heap_size = 12 * 64 * 1024

(* Time each replica's main and tally the exact counters of its address
   space and heap; interp.steps is the fuel main burned. *)
let instrument (p : Program.t) ~calls ~steps ~counters =
  let main ctx =
    Ledger.span Ledger.Interp_main (fun () ->
        let fuel () = Option.value (Process.Fuel.remaining ctx.Program.fuel) ~default:0 in
        let before = fuel () in
        let a = ctx.Program.alloc in
        calls.Ledger.last_malloc <- 0;
        Fun.protect
          ~finally:(fun () ->
            steps := !steps + before - fuel ();
            counters :=
              Ledger.sum !counters
                (Ledger.heap_stats a.Allocator.stats
                @ Ledger.mem_ops a.Allocator.mem
                @ Ledger.mem_pages a.Allocator.mem))
          (fun () -> p.Program.main { ctx with Program.alloc = Ledger.wrap_alloc calls a }))
  in
  { p with Program.main }

(* Parsing both apps takes well under a millisecond, so a pass parses
   them [parse_reps] times and reports the median as its set-up time. *)
let parse_reps = 15

let parse () =
  Ledger.timed (fun () ->
      Ledger.span Ledger.Minic_parse (fun () ->
          List.map (fun (name, src) -> Interp.program_of_source ~name src) apps))

type app_run = {
  report : Replicated.report;
  eliminated : int;
  measured_ns : int;
  reference_ns : int;
  errors : string list;
}

let run_app ~seed ~calls ~steps ~counters (p : Program.t) =
  let report, measured_ns =
    Ledger.timed (fun () ->
        Ledger.span Ledger.Replicated_run (fun () ->
            Replicated.run
              ~config:(Diehard.Config.v ~heap_size ~seed ~jobs:1 ())
              ~replicas
              ~seed_pool:(Dh_rng.Seed.create ~master:seed)
              (instrument p ~calls ~steps ~counters)))
  in
  let reference, reference_ns =
    Ledger.timed (fun () ->
        Ledger.span Ledger.Freelist_run (fun () ->
            Ledger.suspend (fun () -> Program.run p (Ledger.freelist ()))))
  in
  let errors =
    List.filter_map
      (fun (bad, msg) ->
        if bad then Some (Printf.sprintf "minic %s: %s" p.Program.name msg) else None)
      [
        (report.Replicated.verdict <> Replicated.Agreed, "the replicas did not agree");
        ( reference.Process.outcome <> Process.Exited 0,
          "the freelist-lea reference did not exit 0" );
        ( report.Replicated.output <> reference.Process.output,
          "voted output differs from the freelist-lea reference" );
      ]
  in
  let eliminated =
    List.length
      (List.filter (fun r -> r.Replicated.eliminated <> None) report.Replicated.replicas)
  in
  { report; eliminated; measured_ns; reference_ns; errors }

let pass ~seed ~lat =
  let parses = List.init parse_reps (fun _ -> parse ()) in
  let programs = fst (List.hd parses) in
  let calls = Ledger.calls ~step:lat () and steps = ref 0 and counters = ref [] in
  let runs = List.map (run_app ~seed ~calls ~steps ~counters) programs in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let eliminated = total (fun r -> r.eliminated) in
  let disagreed =
    total (fun r -> if r.report.Replicated.verdict = Replicated.Agreed then 0 else 1)
  in
  {
    Pass.setup_s = Ledger.median (List.map (fun (_, ns) -> Ledger.seconds ns) parses);
    measured_s = Ledger.seconds (total (fun r -> r.measured_ns));
    reference_s = Ledger.seconds (total (fun r -> r.reference_ns));
    requests = List.length runs;
    mallocs = calls.Ledger.mallocs;
    attempted = replicas * List.length runs;
    failed = eliminated + disagreed;
    exact =
      List.map2
        (fun (name, _) r -> ("minic." ^ name ^ ".output", Hashtbl.hash r.report.Replicated.output))
        apps runs
      @ [
          ("interp.steps", !steps);
          ("replicated.barriers", total (fun r -> r.report.Replicated.barriers));
          ("replicated.eliminated", eliminated);
          ("heap.mallocs", calls.Ledger.mallocs);
          ("heap.frees", calls.Ledger.frees);
        ]
      @ !counters;
    errors = List.concat_map (fun r -> r.errors) runs;
  }
