(* The one report shape every gated bench writes, and the one evaluator
   that gates it.

   A report is a BENCH_<bench>.json file:

     {"schema": "diehard-bench/1", "bench": ..., "cores": ...,
      "config": {...}, "exact": {...}, "wall": {...}}

   - [config] is the geometry (sizes, trial counts, quick, tracing) a
     committed baseline must match before anything is compared to it.
   - [exact] metrics are deterministic given the config: they reproduce
     bit for bit on any machine.
   - [wall] metrics are wall-clock: real but noisy, and only meaningful
     next to [cores], the [Domain.recommended_domain_count] of the
     machine that recorded them.  A single-core runner cannot show
     parallel speedup, only domain-coordination overhead, which is how
     an early committed throughput baseline came to encode negative
     scaling as normal.

   A gate is a list of named checks.  A [Threshold] reads only the
   fresh report; a [Baseline] check compares it with the committed
   report the gate read before rewriting the file, and skips (with a
   note) when there is none or its config differs.  [evaluate] runs the
   whole list and prints every verdict to stderr, so one failure never
   hides another; [run] exits 3 if any check failed. *)

module Json = Dh_obs.Json

let schema = "diehard-bench/1"

type report = {
  bench : string;
  cores : int;
  config : (string * Json.t) list;
  exact : (string * Json.t) list;
  wall : (string * Json.t) list;
}

let v ~bench ~config ~exact ~wall =
  { bench; cores = Domain.recommended_domain_count (); config; exact; wall }

let int n = Json.Number (float_of_int n)
let float x = Json.Number x
let bool b = Json.Bool b

(* --- one writer, one reader --- *)

let path bench = "BENCH_" ^ bench ^ ".json"

let to_json r =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("bench", Json.String r.bench);
      ("cores", int r.cores);
      ("config", Json.Obj r.config);
      ("exact", Json.Obj r.exact);
      ("wall", Json.Obj r.wall);
    ]

let of_json ~bench json =
  let open Json in
  match
    ( member "schema" json,
      member "bench" json,
      member "cores" json,
      member "config" json,
      member "exact" json,
      member "wall" json )
  with
  | ( Some (String s),
      Some (String b),
      Some (Number cores),
      Some (Obj config),
      Some (Obj exact),
      Some (Obj wall) )
    when s = schema && b = bench ->
    Ok { bench; cores = int_of_float cores; config; exact; wall }
  | _ -> Error (Printf.sprintf "is not a %s report for bench %S" schema bench)

let write r =
  let oc = open_out (path r.bench) in
  output_string oc (Json.to_string (to_json r));
  close_out oc;
  Printf.printf "wrote %s\n%!" (path r.bench)

(* A report as text: [config] and [exact], which reproduce bit for bit,
   on stdout; [cores] and the [wall] metrics on stderr. *)
let print r =
  let show oc (name, v) =
    Printf.fprintf oc "  %-36s %s\n" name (String.trim (Json.to_string v))
  in
  Printf.printf "%s report, config and exact metrics:\n" r.bench;
  List.iter (show stdout) (r.config @ r.exact);
  Printf.eprintf "%s report, wall-clock metrics (%d cores):\n" r.bench r.cores;
  List.iter (show stderr) r.wall;
  flush stdout;
  flush stderr

(* [Ok None] when there is no file; [Error] when one exists but is not a
   readable report of this bench, which fails the gate: a broken
   baseline would otherwise silently disable every comparison. *)
let read bench =
  let file = path bench in
  if not (Sys.file_exists file) then Ok None
  else
    match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
    | exception Sys_error e -> Error ("baseline " ^ e)
    | Error e -> Error (Printf.sprintf "baseline %s does not parse: %s" file e)
    | Ok json -> (
      match of_json ~bench json with
      | Ok r -> Ok (Some r)
      | Error e -> Error (Printf.sprintf "baseline %s %s" file e))

(* --- metric lookup --- *)

exception Missing of string

let metric r name =
  match List.assoc_opt name r.exact with
  | Some v -> v
  | None -> (
    match List.assoc_opt name r.wall with
    | Some v -> v
    | None -> raise (Missing name))

let number r name =
  match metric r name with Json.Number x -> x | _ -> raise (Missing name)

let flag r name =
  match metric r name with Json.Bool b -> b | _ -> raise (Missing name)

let config_flag r name =
  match List.assoc_opt name r.config with
  | Some (Json.Bool b) -> b
  | _ -> raise (Missing ("config." ^ name))

(* --- checks --- *)

type outcome = Pass of string | Skip of string | Fail of string

type check =
  | Threshold of string * (report -> outcome)
  | Baseline of string * (baseline:report -> report -> outcome)

(* The one baseline tolerance in use: a wall-clock rate may fall at
   most 5% below its committed value. *)
let tolerance = 0.05

let verdict ok msg = if ok then Pass msg else Fail msg

(* A threshold check that passes when [f] says so. *)
let check name ?(skip = fun _ -> None) f =
  Threshold
    (name, fun r -> match skip r with Some why -> Skip why | None -> f r)

(* Wall-clock parallelism checks cannot pass on one core; say so
   instead of encoding the inevitable slowdown as acceptable. *)
let single_core r =
  if r.cores < 2 then
    Some
      (Printf.sprintf
         "single-core runner (cores=%d): wall-clock check skipped, not a failure"
         r.cores)
  else None

let holds name =
  check name (fun r -> verdict (flag r name) (Printf.sprintf "%b" (flag r name)))

let above ?skip bound name =
  check name ?skip (fun r ->
      let x = number r name in
      verdict (x > bound) (Printf.sprintf "%.3f (must be > %g)" x bound))

let at_most bound name =
  check name (fun r ->
      let x = number r name in
      verdict (x <= bound) (Printf.sprintf "%.2f (budget %g)" x bound))

(* An exact metric must equal the committed baseline's. *)
let unchanged name =
  Baseline
    ( name,
      fun ~baseline r ->
        let b = metric baseline name and x = metric r name in
        verdict (x = b)
          (Printf.sprintf "%s (baseline %s)"
             (String.trim (Json.to_string x))
             (String.trim (Json.to_string b))) )

(* A rate may not fall more than [tolerance] below the baseline's; a
   metric the baseline lacks (a new allocator) has nothing to compare,
   but one it holds as something other than a number is a broken
   baseline. *)
let rate_holds name =
  Baseline
    ( name,
      fun ~baseline r ->
        match metric baseline name with
        | exception Missing _ -> Skip "not in the baseline"
        | Json.Number b ->
          let x = number r name in
          verdict
            (x >= b *. (1. -. tolerance))
            (Printf.sprintf "%.0f vs baseline %.0f (%+.1f%%, floor -%.0f%%)" x b
               (((x /. b) -. 1.) *. 100.)
               (tolerance *. 100.))
        | v -> Fail ("baseline value " ^ String.trim (Json.to_string v) ^ " is not a number") )

let outcome ~baseline r = function
  | Threshold (name, f) -> (name, try f r with Missing m -> Fail ("no metric " ^ m))
  | Baseline (name, f) -> (
    ( name,
      match baseline with
      | Error _ -> Skip "baseline unreadable; not compared"
      | Ok None -> Skip "no committed baseline; not compared"
      | Ok (Some b) when b.config <> r.config ->
        Skip "baseline config differs (e.g. quick vs full, traced); not compared"
      | Ok (Some b) -> ( try f ~baseline:b r with Missing m -> Fail ("no metric " ^ m))
    ))

(* Evaluate every check, print every verdict to stderr, and return the
   names of the failed ones.  [baseline] is what [read] returned; an
   unreadable baseline is itself a failed check. *)
let evaluate ~baseline checks r =
  let verdicts =
    (match baseline with Error e -> [ ("baseline", Fail e) ] | Ok _ -> [])
    @ List.map (outcome ~baseline r) checks
  in
  List.iter
    (fun (name, o) ->
      let tag, msg =
        match o with Pass m -> ("ok  ", m) | Skip m -> ("SKIP", m) | Fail m -> ("FAIL", m)
      in
      Printf.eprintf "  %s %s gate %s: %s\n" tag r.bench name msg)
    verdicts;
  let failed =
    List.filter_map (function n, Fail _ -> Some n | _ -> None) verdicts
  in
  Printf.eprintf "%s gate: %d checks, %d failed\n%!" r.bench (List.length verdicts)
    (List.length failed);
  failed

(* Read the committed baseline, measure, rewrite the file, gate. *)
let run ~bench checks measure =
  let baseline = read bench in
  let r = measure () in
  write r;
  if evaluate ~baseline checks r <> [] then exit 3
