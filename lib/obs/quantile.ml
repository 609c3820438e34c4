(* Two-level bucketing.  A sample's bucket is its value itself while it
   fits in [2 * 2^fine_bits] (exact), and otherwise is addressed by
   (exponent, top [fine_bits] mantissa bits): with e the index of the
   most significant set bit and shift = e - fine_bits,

     index = (e - fine_bits + 1) * 2^fine_bits
             + ((v lsr shift) land (2^fine_bits - 1))

   which is continuous with the exact range and monotone in v.  Every
   bucket at shift s spans 2^s values starting at a multiple >= 2^fine_bits
   of 2^s, so the span is at most lo / 2^fine_bits — the relative error
   bound quantile extraction inherits. *)

let fine_bits = 5
let fine = 1 lsl fine_bits (* 32 *)
let exact_limit = 2 * fine (* values below this are their own bucket *)

(* max_int has 62 significant bits: e = 61, block = e - fine_bits + 1 = 57,
   so the last block is 57 and the count is 58 blocks of [fine] buckets. *)
let bucket_count = 58 * fine

(* The number of significant bits of [v >= 0], by halving steps: six
   compares, whatever the sample. *)
let bits_of v =
  let n = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then begin n := 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin n := !n + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin n := !n + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin n := !n + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin n := !n + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then begin n := !n + 1; v := !v lsr 1 end;
  !n + !v

let bucket_of v =
  if v < 0 then invalid_arg "Quantile.bucket_of: negative sample";
  if v < exact_limit then v
  else
    (* shift = e - fine_bits: the bits of v above the exact range *)
    let shift = bits_of (v lsr (fine_bits + 1)) in
    ((shift + 1) * fine) + ((v lsr shift) land (fine - 1))

let bucket_bounds i =
  if i < 0 || i >= bucket_count then invalid_arg "Quantile.bucket_bounds";
  if i < exact_limit then (i, i)
  else
    let block = i / fine and m = i mod fine in
    let shift = block - 1 in
    let lo = (fine + m) lsl shift in
    (lo, lo + (1 lsl shift) - 1)

(* --- per-domain cells --- *)

type cell = { counts : int array; mutable c_sum : int }
type t = cell Cell.t

let fresh_cell () = { counts = Array.make bucket_count 0; c_sum = 0 }

(* The one process-wide name table.  Only creation, [reset] and
   [to_csv] take the lock; recording goes straight to the per-domain
   cells. *)
let table : (string, t) Hashtbl.t = Hashtbl.create 8
let table_lock = Mutex.create ()

let named name =
  Mutex.protect table_lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some h -> h
      | None ->
        let h = Cell.create fresh_cell in
        Hashtbl.replace table name h;
        h)

let share = Cell.share

let record q v =
  if Control.enabled () then begin
    let cell = Cell.get q in
    let b = bucket_of v in
    cell.counts.(b) <- cell.counts.(b) + 1;
    cell.c_sum <- cell.c_sum + v
  end

let reset () =
  Mutex.protect table_lock (fun () ->
      Hashtbl.iter
        (fun _ h ->
          Cell.fold
            (fun () cell ->
              Array.fill cell.counts 0 bucket_count 0;
              cell.c_sum <- 0)
            () h)
        table)

(* --- snapshots --- *)

type snapshot = { s_counts : int array; s_sum : int; s_total : int }

let empty = { s_counts = Array.make bucket_count 0; s_sum = 0; s_total = 0 }

let snapshot q =
  let counts = Array.make bucket_count 0 in
  let sum =
    Cell.fold
      (fun sum cell ->
        Array.iteri (fun i n -> counts.(i) <- counts.(i) + n) cell.counts;
        sum + cell.c_sum)
      0 q
  in
  { s_counts = counts; s_sum = sum; s_total = Array.fold_left ( + ) 0 counts }

let merge a b =
  {
    s_counts = Array.init bucket_count (fun i -> a.s_counts.(i) + b.s_counts.(i));
    s_sum = a.s_sum + b.s_sum;
    s_total = a.s_total + b.s_total;
  }

let count s = s.s_total
let counts s = Array.copy s.s_counts
let sum s = s.s_sum

let mean s = if s.s_total = 0 then 0. else float_of_int s.s_sum /. float_of_int s.s_total

let quantile s q =
  if s.s_total = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int s.s_total)) in
      min s.s_total (max 1 r)
    in
    let acc = ref 0 and result = ref 0 in
    (try
       Array.iteri
         (fun i n ->
           acc := !acc + n;
           if !acc >= rank then begin
             result := snd (bucket_bounds i);
             raise Exit
           end)
         s.s_counts
     with Exit -> ());
    !result
  end

let max_value s =
  let result = ref 0 in
  Array.iteri (fun i n -> if n > 0 then result := snd (bucket_bounds i)) s.s_counts;
  !result

let to_csv () =
  let rows =
    Mutex.protect table_lock (fun () ->
        Hashtbl.fold (fun name h acc -> (name, h) :: acc) table [])
  in
  let b = Buffer.create 256 in
  Buffer.add_string b "name,count,p50,p99,max,sum\n";
  List.iter
    (fun (name, h) ->
      let s = snapshot h in
      Printf.bprintf b "%s,%d,%d,%d,%d,%d\n" name (count s) (quantile s 0.5)
        (quantile s 0.99) (max_value s) (sum s))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  Buffer.contents b
