let bucket_count = 64

(* Histograms record into per-domain {!Cell}s (see {!Quantile}), merged
   only when read. *)
type histogram = Quantile.t

(* Gauges are callbacks, read at dump time. *)
type instrument = Gauge of (unit -> int) | Histogram of histogram

(* The one process-wide registry. *)
let items : (string, instrument) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

(* Gauges replace unconditionally: the newest component of a given name
   is the one the dump reflects. *)
let gauge_fn name f = Mutex.protect lock (fun () -> Hashtbl.replace items name (Gauge f))

(* Get-or-create under the registry lock.  Only instrument creation and
   dumping take the lock; recording goes straight to the per-domain
   cells. *)
let histogram name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt items name with
      | Some (Histogram h) -> h
      | Some (Gauge _) ->
        invalid_arg (Printf.sprintf "Metrics: %S already registered as a gauge" name)
      | None ->
        let h = Quantile.create () in
        Hashtbl.replace items name (Histogram h);
        h)

let bucket_of v =
  if v < 0 then invalid_arg "Metrics.bucket_of: negative sample";
  (* bucket = number of significant bits: 0 -> 0, 1 -> 1, 2..3 -> 2, ... *)
  let rec go bits v = if v = 0 then bits else go (bits + 1) (v lsr 1) in
  go 0 v

let observe = Quantile.record

(* The log2 view: every HDR bucket lies inside one power-of-two range,
   so bucketing each by its lower bound is exact. *)
let log2_buckets snap =
  let buckets = Array.make bucket_count 0 in
  Array.iteri
    (fun i n ->
      if n > 0 then begin
        let b = bucket_of (fst (Quantile.bucket_bounds i)) in
        buckets.(b) <- buckets.(b) + n
      end)
    (Quantile.counts snap);
  buckets

type row = {
  name : string;
  kind : string;
  value : int;
  p50 : int option;
  p99 : int option;
  detail : string;
}

let histogram_row name h =
  let snap = Quantile.snapshot h in
  let nonzero = ref [] in
  Array.iteri
    (fun b n -> if n > 0 then nonzero := Printf.sprintf "b%d:%d" b n :: !nonzero)
    (log2_buckets snap);
  {
    name;
    kind = "histogram";
    value = Quantile.count snap;
    p50 = Some (Quantile.quantile snap 0.5);
    p99 = Some (Quantile.quantile snap 0.99);
    detail =
      Printf.sprintf "sum=%d mean=%.1f buckets=%s" (Quantile.sum snap)
        (Quantile.mean snap)
        (String.concat ";" (List.rev !nonzero));
  }

let dump () =
  let rows =
    Mutex.protect lock (fun () ->
        Hashtbl.fold (fun name inst acc -> (name, inst) :: acc) items [])
  in
  List.sort compare
    (List.map
       (fun (name, inst) ->
         match inst with
         | Gauge f ->
           let value = try f () with _ -> 0 in
           { name; kind = "gauge"; value; p50 = None; p99 = None; detail = "" }
         | Histogram h -> histogram_row name h)
       rows)

(* CSV cells are names, kinds, ints and "k=v;..." details: no quoting
   needed beyond defence against a stray comma. *)
let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv () =
  let b = Buffer.create 512 in
  Buffer.add_string b "name,kind,value,p50,p99,detail\n";
  let quantile_cell = function None -> "" | Some v -> string_of_int v in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%d,%s,%s,%s\n" (csv_cell r.name) r.kind r.value
           (quantile_cell r.p50) (quantile_cell r.p99) (csv_cell r.detail)))
    (dump ());
  Buffer.contents b

let write_csv ~path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_csv ()))

let reset () = Mutex.protect lock (fun () -> Hashtbl.reset items)
