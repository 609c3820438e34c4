(* Plain-text table rendering for the benchmark reports.  Every figure
   and table of the paper is printed as an aligned text table with a
   header naming the paper artifact it regenerates. *)

(* Where reports print: stdout, except inside {!on_stderr}. *)
let out = ref stdout

(* Print [f]'s report to stderr: for wall-clock sections, so the stdout
   of a seeded experiment stays deterministic. *)
let on_stderr f =
  flush stdout;
  out := stderr;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      out := stdout)
    f

(* One line of a table, flushed as [print_endline] would. *)
let line s =
  output_string !out (s ^ "\n");
  flush !out

let heading title =
  let bar = String.make (String.length title) '=' in
  Printf.fprintf !out "\n%s\n%s\n" title bar

let subheading title = Printf.fprintf !out "\n-- %s --\n" title

(* Output format for tabular results: aligned text (default) or CSV.
   Flipped by `bench/main.exe -- csv`; every table in the harness then
   comes out machine-readable, same rows, same order. *)
type format = Table | Csv

let format = ref Table

(* `--trace PATH`: whether the experiments that honour it (throughput
   and its gate) build their address spaces with obs on, and the trace
   events their runs returned, newest run first, for the frontend to
   write. *)
let traced = ref false
let trace_events : Dh_obs.Tracing.event list list ref = ref []
let keep_trace events = if !traced then trace_events := events :: !trace_events

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

(* Emit rows as CSV, header first. *)
let csv ~header rows =
  List.iter
    (fun row -> line (String.concat "," (List.map csv_cell row)))
    (header :: rows)

(* Render rows of string cells with aligned columns. *)
let table_text ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let print_row row =
    let cells =
      List.mapi (fun i cell -> cell ^ String.make (widths.(i) - String.length cell) ' ') row
    in
    line ("  " ^ String.concat "  " cells)
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') (Array.to_list widths));
  List.iter print_row rows

let table ~header rows =
  match !format with Table -> table_text ~header rows | Csv -> csv ~header rows

let pct p = Printf.sprintf "%5.1f%%" (100. *. p)
let pct2 p = Printf.sprintf "%7.3f%%" (100. *. p)
let f2 x = Printf.sprintf "%.2f" x
let note fmt = Printf.ksprintf (fun s -> Printf.fprintf !out "  %s\n" s) fmt

(* Timing: median of [runs] wall-clock measurements of [f]. *)
let time_median ?(runs = 3) f =
  let samples =
    List.init runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (f ()));
        Unix.gettimeofday () -. t0)
  in
  match List.sort compare samples with
  | [] -> 0.
  | sorted -> List.nth sorted (List.length sorted / 2)
