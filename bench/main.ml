(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index and
   EXPERIMENTS.md for paper-vs-measured commentary).

     dune exec bench/main.exe            # everything, full settings
     dune exec bench/main.exe -- quick   # everything, reduced trials
     dune exec bench/main.exe -- fig4a fig5a table1 ...   # any subset

   Options: `quick` (reduced trials), `csv` (tables as CSV), and
   `--trace PATH` (for `throughput` and `throughput-gate`: build the
   runs' address spaces with observability on and write the events they
   returned as Chrome trace_event JSON).  The `*-gate` experiments run
   only when named: each writes BENCH_<bench>.json, gates it against the
   file it replaced, and exits 3 if a check fails.  Usage errors exit 2.

   Each experiment's [name: N s] trailer and the completion line are
   wall-clock, so they go to stderr: the stdout of a seeded experiment
   can then be compared byte for byte (test/golden does). *)

open Dh_bench

let experiments ~quick =
  [
    ( "fig4a",
      fun () ->
        Fig4.figure_4a ~trials:(if quick then 60 else 300);
        Fig4.overflow_length_sweep ~trials:(if quick then 60 else 300) );
    ("fig4b", fun () -> Fig4.figure_4b ~trials:(if quick then 20 else 100));
    ("fig5a", fun () -> Fig5.figure_5a ~factor:(if quick then 0.2 else 1.0));
    ("fig5b", fun () -> Fig5.figure_5b ~factor:(if quick then 0.2 else 1.0));
    ("micro", fun () -> Fig5.microbench ());
    ("table1", fun () -> Table1.run ~quick ());
    ("inject", fun () -> Inject.run ~quick ());
    ("survivor", fun () -> Survivor.run ~quick ());
    ("squid", fun () -> Squid_bench.run ~quick ());
    ("replicas", fun () -> Replicas.run ~quick ());
    ("probes", fun () -> Probes.run ~quick ());
    ("space", fun () -> Space.run ~quick ());
    ("space-gate", fun () -> Space.gate ~quick ());
    ("serve", fun () -> Serve.run ~quick ());
    ("serve-gate", fun () -> Serve.gate ~quick ());
    ("ablate", fun () -> Ablate.run ~quick ());
    ("audit", fun () -> Audit.run ~quick ());
    ("audit-gate", fun () -> Audit.gate ~quick ());
    ("throughput", fun () -> ignore (Throughput.measure ~quick ()));
    ("throughput-gate", fun () -> Throughput.gate ~quick ());
  ]

let usage msg =
  prerr_endline msg;
  exit 2

let () =
  let quick = ref false and trace = ref None in
  let rec parse = function
    | [] -> []
    | "quick" :: rest ->
      quick := true;
      parse rest
    | "csv" :: rest ->
      Report.format := Report.Csv;
      parse rest
    | "--trace" :: path :: rest ->
      trace := Some path;
      parse rest
    | [ "--trace" ] -> usage "--trace wants a PATH"
    | name :: rest -> name :: parse rest
  in
  let selected = parse (List.tl (Array.to_list Sys.argv)) in
  let quick = !quick in
  let experiments = experiments ~quick in
  let to_run =
    (* Gates can exit non-zero; they only run when named explicitly. *)
    if selected = [] then
      List.filter (fun (n, _) -> not (String.ends_with ~suffix:"-gate" n)) experiments
    else
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> (name, f)
          | None ->
            usage
              (Printf.sprintf "unknown experiment %S; known: %s" name
                 (String.concat ", " (List.map fst experiments))))
        selected
  in
  (* at exit, so a failed gate's run still leaves its trace *)
  Option.iter
    (fun path ->
      List.iter
        (fun (name, _) ->
          if not (List.mem name [ "throughput"; "throughput-gate" ]) then
            usage (Printf.sprintf "--trace applies to throughput and throughput-gate, not %s" name))
        to_run;
      Report.traced := true;
      at_exit (fun () ->
          let events = Dh_obs.Tracing.merge (List.rev !Report.trace_events) in
          Dh_obs.Tracing.write_chrome_json ~path events;
          Printf.printf "wrote %s (%d events)\n" path (List.length events)))
    !trace;
  Printf.printf
    "DieHard reproduction benchmarks%s -- one section per paper table/figure\n"
    (if quick then " (quick mode)" else "");
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      let t = Unix.gettimeofday () in
      f ();
      Printf.eprintf "  [%s: %.1fs]\n%!" name (Unix.gettimeofday () -. t))
    to_run;
  Printf.eprintf "\nAll benchmarks complete in %.1fs.\n" (Unix.gettimeofday () -. t0)
