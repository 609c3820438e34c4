(* The repository benchmark.  One process runs one workload for one seed:

     perfbench --workload serve|alloc|minic --seed N --seconds S --trace 0|1

   It runs one warm-up pass, then measured passes until S seconds have
   gone by (at least [min_passes]).  Every pass checks its outputs
   against the freelist-lea reference and must reproduce the exact
   counters of its layout's first pass bit for bit.  A probe of the
   machine's speed (Calib) runs before the first measured pass and after
   each one, and every timing is reported at the reference machine's
   speed.  The last line of standard output
   is one JSON object: the end-to-end metrics with --trace 0; with
   --trace 1, one more pass runs with spans recorded, a layer table is
   printed, the spans are written to --out, a held-out seed is checked
   for determinism, and the JSON carries the per-layer metrics.  Any
   failed check exits 1. *)

(* A run cycles its passes through [layouts] sub-seeds of the workload
   seed, so each metric spans many heap layouts and request streams
   instead of hanging on a few: serve touches only about 40 pages, and
   which ones depends on where the heap placed its objects.  Every
   layout runs at least twice, so its exact counters are checked. *)
let layouts = 16
let layout_seed seed i = (seed * layouts) + i
let min_passes = 2 * layouts

let workloads =
  [ ("serve", Serve.pass); ("alloc", Alloc.pass); ("minic", Minic.pass) ]

let median = Ledger.median

let ratio a b = if b = 0. then 0. else a /. b

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
       metrics)

let result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics metrics)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "perfbench: FAILED: %s\n%!" msg;
      result ~correct:false ~attempted:1 ~failed:1 [];
      exit 1)
    fmt

(* A pass must pass its correctness checks and, when a fingerprint is
   given, reproduce every exact counter of it. *)
let check ~what ?fingerprint (p : Pass.t) =
  if p.Pass.errors <> [] then fail "%s: %s" what (String.concat "; " p.Pass.errors);
  match fingerprint with
  | None -> ()
  | Some fp ->
    let drift =
      List.filter (fun (k, v) -> Ledger.get fp k <> v || not (List.mem_assoc k fp)) p.Pass.exact
    in
    if drift <> [] || List.length fp <> List.length p.Pass.exact then
      fail "%s: exact counters drifted from the first pass with the same seed: %s" what
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s %d -> %d" k (Ledger.get fp k) v) drift))

let timed f =
  let v, ns = Ledger.timed f in
  (v, Ledger.seconds ns)

(* A measured pass and what the run keeps of it. *)
type measured = {
  pass : Pass.t;
  wall : float;
  index : float;  (** Machine speed index over the pass (Calib): timings are multiplied by it. *)
  p50_us : float;
  p99_us : float;
  samples : int;
  beyond_p99 : int;
}

let per_layer_units =
  [
    ("supervisor.self_s", "s");
    ("server.self_s", "s");
    ("heap.malloc_s", "s");
    ("heap.free_s", "s");
    ("driver.self_s", "s");
    ("freelist.s", "s");
    ("interp.self_s", "s");
    ("replicated.self_s", "s");
    ("minic.parse_s", "s");
    ("setup.self_s", "s");
    ("unattributed_s", "s");
    ("traced_wall_s", "s");
    ("tracing_overhead_s", "s");
    ("supervisor.checkpoints", "count");
    ("supervisor.rewinds", "count");
    ("supervisor.handle_calls_per_request", "ratio");
    ("mem.preimaged_pages", "pages");
    ("mem.pages_restored", "pages");
    ("heap.mallocs", "count");
    ("heap.frees", "count");
    ("heap.probes", "count");
    ("heap.probes_per_malloc", "ratio");
    ("heap.failed_mallocs", "count");
    ("heap.ignored_frees", "count");
    ("heap.meshes", "count");
    ("mem.meshed_pages", "pages");
    ("mem.reads", "count");
    ("mem.writes", "count");
    ("mem.tlb_misses", "count");
    ("mem.cache_misses", "count");
    ("mem.mmaps", "count");
    ("interp.steps", "count");
    ("interp.steps_per_s", "1/s");
    ("replicated.barriers", "count");
    ("replicated.eliminated", "count");
    ("failed_frac", "ratio");
    ("spans", "count");
  ]

let () =
  let workload = ref "" and seed = ref (-1) and secs = ref 0. and trace = ref 0 in
  let out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve|alloc|minic");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_float secs, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 also run a traced pass");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload serve|alloc|minic --seed N --seconds S --trace 0|1";
  let run_pass =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline "perfbench: --workload must be serve, alloc or minic";
      exit 2
  in
  if !seed < 0 || !secs <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: need --seed >= 0, --seconds > 0 and --trace 0|1";
    exit 2
  end;
  let workload = !workload and seed = !seed in
  let lat = Ledger.Hist.create () in
  (* Every pass starts on a compacted OCaml heap, so the garbage earlier
     passes left behind does not slow the later ones. *)
  let settle () =
    Gc.compact ();
    Ledger.Hist.clear lat
  in
  let timed_pass ~seed =
    settle ();
    timed (fun () -> run_pass ~seed ~lat)
  in
  let run_pass ~seed = fst (timed_pass ~seed) in
  (* The exact counters of each layout's first pass, which every later
     pass of that layout must repeat. *)
  let fingerprints = Array.make layouts [] in
  let warm = run_pass ~seed:(layout_seed seed 0) in
  check ~what:"warm-up pass" warm;
  fingerprints.(0) <- warm.Pass.exact;
  let runs = ref [] in
  let before = ref (Calib.probe ()) in
  let t0 = Ledger.now_ns () in
  while List.length !runs < min_passes || Ledger.seconds (Ledger.now_ns () - t0) < !secs do
    let i = List.length !runs mod layouts in
    let p, wall = timed_pass ~seed:(layout_seed seed i) in
    let after = Calib.probe () in
    if fingerprints.(i) = [] then begin
      check ~what:"measured pass" p;
      fingerprints.(i) <- p.Pass.exact
    end
    else check ~what:"measured pass" ~fingerprint:fingerprints.(i) p;
    let q x = Ledger.Hist.quantile lat x /. 1000. in
    runs :=
      { pass = p; wall; index = (!before +. after) /. 2.; p50_us = q 0.5; p99_us = q 0.99;
        samples = lat.Ledger.Hist.total; beyond_p99 = Ledger.Hist.beyond lat 0.99 }
      :: !runs;
    before := after
  done;
  let fingerprint = fingerprints.(0) in
  let runs = List.rev !runs in
  let passes = List.map (fun r -> r.pass) runs in
  (* Each timing is the median over passes of the pass's own figure at
     the reference machine's speed; [as_timed] gives the same medians
     without the speed index, for the report. *)
  let over ~as_timed f =
    median (List.map (fun r -> f r (if as_timed then 1. else r.index)) runs)
  in
  let time ~as_timed f = over ~as_timed (fun r i -> f r.pass *. i) in
  let rate ~as_timed f = over ~as_timed (fun r i -> f r.pass /. i) in
  let latency ~as_timed f = over ~as_timed (fun r i -> f r *. i) in
  let total f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  let attempted = total (fun p -> p.Pass.attempted) and failed = total (fun p -> p.Pass.failed) in
  let touched =
    Array.fold_left (fun acc fp -> acc +. float_of_int (Ledger.get fp "touched_pages")) 0. fingerprints
    /. float_of_int layouts
  in
  let end_to_end ~as_timed =
    let time = time ~as_timed and rate = rate ~as_timed and latency = latency ~as_timed in
    [
      ("setup_s", time (fun p -> p.Pass.setup_s), "s");
      ("throughput_rps", rate (fun p -> ratio (float_of_int p.Pass.requests) p.Pass.measured_s), "req/s");
      ("latency_p50_us", latency (fun r -> r.p50_us), "us");
      ("latency_p99_us", latency (fun r -> r.p99_us), "us");
      ("ops_per_s", rate (fun p -> ratio (float_of_int p.Pass.mallocs) p.Pass.measured_s), "ops/s");
      ( "slowdown_vs_freelist",
        median (List.map (fun p -> ratio p.Pass.measured_s p.Pass.reference_s) passes),
        "ratio" );
      ("wall_s", time (fun p -> p.Pass.measured_s), "s");
      ("touched_pages", touched, "pages");
    ]
  in
  let end_to_end = end_to_end ~as_timed:false and as_timed = end_to_end ~as_timed:true in
  Printf.printf "perfbench %s seed %d: %d measured passes over %d layouts after one warm-up pass\n"
    workload seed (List.length passes) layouts;
  List.iter2
    (fun (name, v, unit) (_, t, _) ->
      Printf.printf "  %-22s %14.6g %-6s (as timed: %.6g)\n" name v unit t)
    end_to_end as_timed;
  let indexes = List.map (fun r -> r.index) runs in
  Printf.printf "  speed index over passes: median %.4f, range %.4f to %.4f\n" (median indexes)
    (List.fold_left min infinity indexes) (List.fold_left max 0. indexes);
  Printf.printf "  %-22s %14.6g ratio (%d of %d)\n" "failed_frac"
    (ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  let fewest f = List.fold_left (fun acc r -> min acc (f r)) max_int runs in
  Printf.printf "  latency: median over passes of each pass's quantile; %d samples a pass, %d beyond p99\n"
    (fewest (fun r -> r.samples)) (fewest (fun r -> r.beyond_p99));
  if !trace = 0 then result ~correct:true ~attempted ~failed end_to_end
  else begin
    (* The traced pass repeats layout 0; compare it with the untraced
       passes of that layout, both at the reference machine's speed. *)
    let untraced =
      median
        (List.filteri (fun j _ -> j mod layouts = 0) runs |> List.map (fun r -> r.wall *. r.index))
    in
    Ledger.start ();
    let tp, traced_wall = timed_pass ~seed:(layout_seed seed 0) in
    Ledger.stop ();
    let traced = traced_wall *. ((!before +. Calib.probe ()) /. 2.) in
    check ~what:"traced pass" ~fingerprint tp;
    (* Determinism on a second seed that no bound is computed from. *)
    let held_out = layout_seed (seed + 1_000_000) 0 in
    let h1 = run_pass ~seed:held_out in
    check ~what:"held-out seed, first pass" h1;
    check ~what:"held-out seed, second pass" ~fingerprint:h1.Pass.exact (run_pass ~seed:held_out);
    let rows = Ledger.self_times () in
    let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0. rows in
    let rows = rows @ [ ("unattributed_s", traced_wall -. attributed) ] in
    Printf.printf "layer table (%s, seed %d, one traced pass, %d spans)\n" workload seed
      Ledger.spans.Ledger.len;
    List.iter
      (fun (r, s) -> Printf.printf "  %-22s %12.6f s %6.1f%%\n" r s (100. *. ratio s traced_wall))
      rows;
    Printf.printf "  %-22s %12.6f s\n" "traced wall" traced_wall;
    Printf.printf
      "tracing overhead at the reference speed: %.6f s traced - %.6f s untraced median = %+.6f s \
       (%+.1f%%)\n"
      traced untraced (traced -. untraced)
      (100. *. ratio (traced -. untraced) untraced);
    Printf.printf "determinism: %d exact counters repeated on seed %d and held-out seed %d\n"
      (List.length fingerprint) seed held_out;
    (try
       if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
       let path = Filename.concat !out (Printf.sprintf "spans-%s.csv" workload) in
       Ledger.write_spans path;
       Printf.printf "spans written to %s\n" path
     with Sys_error e -> fail "writing spans: %s" e);
    let exact = tp.Pass.exact in
    let count k = float_of_int (Ledger.get exact k) in
    let value name =
      match List.assoc_opt name rows with
      | Some s -> s
      | None -> (
        match name with
        | "traced_wall_s" -> traced_wall
        | "tracing_overhead_s" -> traced -. untraced
        | "supervisor.handle_calls_per_request" ->
          ratio (count "supervisor.handle_calls") (count "supervisor.requests")
        | "heap.probes_per_malloc" -> ratio (count "heap.probes") (count "heap.probed_mallocs")
        | "interp.steps_per_s" ->
          ratio (count "interp.steps")
            (Option.value (List.assoc_opt "interp.self_s" rows) ~default:0.)
        | "failed_frac" -> ratio (float_of_int tp.Pass.failed) (float_of_int tp.Pass.attempted)
        | "spans" -> float_of_int Ledger.spans.Ledger.len
        | k -> count k)
    in
    result ~correct:true ~attempted ~failed
      (List.map (fun (name, unit) -> (name, value name, unit)) per_layer_units)
  end
