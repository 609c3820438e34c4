(* A uniform draw in [0, 1): [Mwc.float01]'s formula, written out so
   the float stays an unboxed local instead of crossing a call. *)
let[@inline] uniform rng = float_of_int (Mwc.next_u32 rng) /. 4294967296.

(* A geometric law is [log (1 - p)], computed once; [p = 1] makes it
   [neg_infinity], which [geometric_draw] answers with 0 and no draw. *)
type geometric = float

let geometric ~p =
  if p <= 0. || p > 1. then invalid_arg "Dist.geometric: want 0 < p <= 1";
  log (1. -. p)

let geometric_draw log1mp rng =
  if log1mp = neg_infinity then 0
  else begin
    (* Inversion: floor (log u / log (1-p)) with u in (0,1]. *)
    let u = 1. -. uniform rng in
    int_of_float (floor (log u /. log1mp))
  end

(* Zipf by inversion of the generalized harmonic CDF.  The table is an
   immutable value built once by its user (a workload builds one per
   service), so domains share it read-only and the hot path is the
   binary search alone. *)

type zipf_table = float array

let zipf_table ~n ~s =
  if n < 1 then invalid_arg "Dist.zipf_table: want n >= 1";
  if s < 0. then invalid_arg "Dist.zipf_table: want s >= 0";
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for k = 1 to n do
    total := !total +. (1. /. Float.pow (float_of_int k) s);
    cdf.(k - 1) <- !total
  done;
  for k = 0 to n - 1 do
    cdf.(k) <- cdf.(k) /. !total
  done;
  cdf

let zipf_rank cdf ~u =
  if u < 0. || u >= 1. then invalid_arg "Dist.zipf_rank: want u in [0, 1)";
  (* Binary search for the first index whose CDF exceeds u. *)
  let rec search lo hi =
    if lo >= hi then lo + 1
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) > u then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length cdf - 1)

(* A size mix keeps the sizes and the weights' running sums, added left
   to right; the last sum is the total. *)
type size_class_mix = { sizes : int array; sums : float array }

let size_class_mix ~classes =
  let n = Array.length classes in
  let sums = Array.make n 0. in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. snd classes.(i);
    sums.(i) <- !total
  done;
  if !total <= 0. then invalid_arg "Dist.size_class_mix: weights sum to zero";
  { sizes = Array.map fst classes; sums }

(* One draw scaled by the total picks the first class whose running sum
   exceeds it; the last class takes the remainder.  The sums stay in an
   unboxed float array, so a draw allocates nothing. *)
let size_class_draw { sizes; sums } rng =
  let last = Array.length sums - 1 in
  let u = uniform rng *. sums.(last) in
  let i = ref 0 in
  while !i < last && not (u < sums.(!i)) do
    incr i
  done;
  sizes.(!i)
