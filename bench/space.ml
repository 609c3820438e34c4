(* §4.5 "Space Consumption": DieHard trades memory for safety.  We
   measure, for each workload: bytes reserved vs requested (internal
   fragmentation from power-of-two rounding), bytes mapped vs live
   (the M-factor and region cost), and pages touched (the paper's
   locality concern — random placement spreads the live set over many
   more pages). *)

module Allocator = Dh_alloc.Allocator
module Stats = Dh_alloc.Stats
module Mem = Dh_mem.Mem
module Profile = Dh_workload.Profile
module Driver = Dh_workload.Driver

let measure profile make_alloc =
  let alloc = make_alloc () in
  let _ = Driver.run profile alloc in
  let stats = alloc.Allocator.stats in
  let mem = alloc.Allocator.mem in
  let rounding =
    float_of_int stats.Stats.bytes_allocated /. float_of_int (max 1 stats.Stats.bytes_requested)
  in
  let mapped = Mem.mapped_bytes mem in
  (rounding, stats.Stats.peak_live_bytes, mapped, Mem.touched_pages mem)

(* A renamed or mistyped profile must not quietly empty the table: fail
   loudly instead of [concat_map]-ing it into nothing. *)
let find_profile_exn name =
  match Profile.find name with
  | Some profile -> profile
  | None ->
    Printf.eprintf "space: unknown workload profile %S (known: %s)\n%!" name
      (String.concat ", " (List.map (fun p -> p.Profile.name) Profile.all));
    exit 2

let profiles = [ "cfrac"; "espresso"; "300.twolf" ]

(* --- the meshing frontier: RSS with and without page meshing ---

   Same profile, same seed, twin DieHard heaps; the mesh-on heap runs
   MESH-style page meshing on the freed-bytes trigger.  Driver checksums
   are placement-independent, so the two runs agree bit-for-bit on
   program-visible output; the mesh suite of `dune runtest` checks that
   on these legs. *)

type mesh_row = {
  mr_profile : string;
  touched_off : int;
  touched_on : int;
  mapped_off : int;
  mapped_on : int;
  meshes : int;
}

let mesh_ratio r =
  if r.touched_on = 0 then 1.0
  else float_of_int r.touched_off /. float_of_int r.touched_on

(* One leg: profile [name] scaled by [factor] on a fresh DieHard heap,
   meshing on or off.  Returns the driver's result and the heap. *)
let mesh_leg ~factor ~mesh name =
  let profile = Profile.scale (find_profile_exn name) ~factor in
  let heap_size = max (Driver.heap_size_for profile) (24 lsl 20) in
  let heap = Factory.diehard_heap ~heap_size ~mesh () in
  let result = Driver.run profile (Diehard.Heap.allocator heap) in
  (* One final pass sweeps the epilogue's frees; the freed-bytes trigger
     only sees churn during the run. *)
  if mesh then ignore (Diehard.Heap.mesh heap);
  (result, heap)

let measure_mesh ~factor name =
  let leg ~mesh =
    let _, heap = mesh_leg ~factor ~mesh name in
    let mem = Diehard.Heap.mem heap in
    (Mem.touched_pages mem, Mem.mapped_bytes mem, Diehard.Heap.meshes heap)
  in
  let touched_off, mapped_off, _ = leg ~mesh:false in
  let touched_on, mapped_on, meshes = leg ~mesh:true in
  { mr_profile = name; touched_off; touched_on; mapped_off; mapped_on; meshes }

let mesh_frontier ~quick () =
  let factor = if quick then 0.2 else 1.0 in
  List.map (measure_mesh ~factor) profiles

let mesh_section rows =
  Report.subheading "Page meshing: the RSS/reliability frontier";
  Report.note "twin runs, same seed (meshing never changes program-visible bytes;";
  Report.note "`dune runtest` checks it). touched = pages written, post-run.";
  Report.table
    ~header:
      [ "benchmark"; "touched off"; "touched on"; "reduction"; "mapped off";
        "mapped on"; "meshes" ]
    (List.map
       (fun r ->
         [
           r.mr_profile;
           string_of_int r.touched_off;
           string_of_int r.touched_on;
           Printf.sprintf "%.2fx" (mesh_ratio r);
           Printf.sprintf "%d KB" (r.mapped_off / 1024);
           Printf.sprintf "%d KB" (r.mapped_on / 1024);
           string_of_int r.meshes;
         ])
       rows)

let run ~quick () =
  Report.heading "Section 4.5: space consumption and page-level locality";
  Report.note "rounding = reserved/requested bytes; mapped = total address space mapped";
  Report.note "touched pages is the simulation's resident-set proxy";
  let factor = if quick then 0.2 else 1.0 in
  let rows =
    List.concat_map
      (fun name ->
          let profile = Profile.scale (find_profile_exn name) ~factor in
          let heap_size = max (Driver.heap_size_for profile) (24 lsl 20) in
          List.map
            (fun (alloc_name, make) ->
              let rounding, peak_live, mapped, pages = measure profile make in
              [
                name;
                alloc_name;
                Report.f2 rounding;
                Printf.sprintf "%d KB" (peak_live / 1024);
                Printf.sprintf "%d KB" (mapped / 1024);
                string_of_int pages;
              ])
            [
              ("malloc", fun () -> Factory.freelist ());
              ("GC", fun () -> Factory.gc ());
              ("DieHard", fun () -> Factory.diehard ~heap_size ());
              ("DieHard+mesh", fun () -> Factory.diehard ~heap_size ~mesh:true ());
            ])
      profiles
  in
  Report.table
    ~header:[ "benchmark"; "allocator"; "rounding"; "peak live"; "mapped"; "pages touched" ]
    rows;
  Report.note
    "expected shape: DieHard rounds up (<= 2x), maps M x 12 regions lazily, and";
  Report.note "touches many more pages (the paper's TLB/RSS discussion, esp. twolf)";
  mesh_section (mesh_frontier ~quick ())

(* --- BENCH_space.json and its gate ---

   `space-gate` fails when meshing stops reducing the resident set: at
   least one section-4.5 workload must shrink its touched-page count by
   [required_ratio].  Pair meshing caps a single workload at exactly 2x,
   which full-mode cfrac and espresso reach; quick mode's truncated runs
   land just short, so the smoke bar is lower -- it gates "meshing still
   pays", not the frontier.  A quick-mode run that found no mesh
   candidates at all skips loudly instead of gating on noise. *)

let bench = "space"

let required_ratio ~quick = if quick then 1.5 else 2.0

let to_report ~quick rows =
  Gate.v ~bench
    ~config:
      [
        ("quick", Gate.bool quick);
        ("profiles", Dh_obs.Json.List (List.map (fun p -> Dh_obs.Json.String p) profiles));
      ]
    ~exact:
      (List.concat_map
         (fun r ->
           let key field = r.mr_profile ^ "." ^ field in
           [
             (key "touched_off", Gate.int r.touched_off);
             (key "touched_on", Gate.int r.touched_on);
             (key "ratio", Gate.float (mesh_ratio r));
             (key "mapped_off", Gate.int r.mapped_off);
             (key "mapped_on", Gate.int r.mapped_on);
             (key "meshes", Gate.int r.meshes);
           ])
         rows
      @ [
          ( "best_ratio",
            Gate.float (List.fold_left (fun acc r -> Float.max acc (mesh_ratio r)) 1.0 rows) );
        ])
    ~wall:[]

let checks =
  [
    Gate.check "best_ratio"
      ~skip:(fun r ->
        let meshes =
          List.fold_left (fun acc p -> acc +. Gate.number r (p ^ ".meshes")) 0. profiles
        in
        if Gate.config_flag r "quick" && meshes = 0. then
          Some "no mesh candidates found in quick mode; not a failure"
        else None)
      (fun r ->
        let best = Gate.number r "best_ratio"
        and required = required_ratio ~quick:(Gate.config_flag r "quick") in
        Gate.verdict (best >= required)
          (Printf.sprintf "best touched-page reduction %.2fx (must be >= %.2fx)" best
             required));
  ]

let gate ~quick () =
  Report.heading "Space gate: meshing must keep paying for itself";
  Gate.run ~bench checks (fun () ->
      let rows = mesh_frontier ~quick () in
      mesh_section rows;
      to_report ~quick rows)
