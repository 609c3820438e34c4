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

type t = { counts : int array; mutable sum : int }

let create () = { counts = Array.make bucket_count 0; sum = 0 }
let reset () = ()

let record h v =
  let b = bucket_of v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.sum <- h.sum + v

let count h = Array.fold_left ( + ) 0 h.counts
let counts h = Array.copy h.counts
let quantile h q =
  let n = count h in
  if n = 0 then 0
  else begin
    let rank = min n (max 1 (int_of_float (ceil (q *. float_of_int n)))) in
    let acc = ref 0 and result = ref 0 in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if !acc >= rank then begin
             result := snd (bucket_bounds i);
             raise Exit
           end)
         h.counts
     with Exit -> ());
    !result
  end

let max_value h =
  let result = ref 0 in
  Array.iteri (fun i n -> if n > 0 then result := snd (bucket_bounds i)) h.counts;
  !result

let to_csv rows =
  let b = Buffer.create 256 in
  Buffer.add_string b "name,count,p50,p99,max,sum\n";
  List.iter
    (fun (name, h) ->
      Printf.bprintf b "%s,%d,%d,%d,%d,%d\n" name (count h) (quantile h 0.5)
        (quantile h 0.99) (max_value h) h.sum)
    rows;
  Buffer.contents b
