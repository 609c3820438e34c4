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
    let u = 1. -. Mwc.float01 rng in
    int_of_float (floor (log u /. log1mp))
  end

(* Zipf by inversion of the generalized harmonic CDF.  The table is an
   immutable value built once by its user (a workload builds one per
   service), so domains share it read-only.  Inversion is Chen and
   Asau's indexed search: [guide.(b)] is the first index whose CDF
   exceeds [b / guide_size], so for [u] in bucket [b] the answer lies at
   or above it, and a short upward scan finds the first CDF value above
   [u] — the index a binary search finds, with no division and no
   closure. *)

type zipf_table = { cdf : float array; guide : int array }

let guide_bits = 12
let guide_size = 1 lsl guide_bits
let guide_scale = float_of_int guide_size

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
  (* [b / guide_size] is exact (a power-of-two divisor), and the last
     CDF value is [total / total = 1], so every bucket's scan stops
     inside the table; the cap at [n - 1] only guards that. *)
  let guide = Array.make guide_size 0 in
  let i = ref 0 in
  for b = 0 to guide_size - 1 do
    let edge = float_of_int b /. guide_scale in
    while !i < n - 1 && cdf.(!i) <= edge do
      incr i
    done;
    guide.(b) <- !i
  done;
  { cdf; guide }

(* [u = h / 2^30] is exact (30 bits fit a float's mantissa, and the
   scale is a power of two), and its bucket [u *. guide_size] is [h]'s
   top [guide_bits] bits, so the bucket's edge is at most [u] and the
   first index whose CDF exceeds [u] is at or above the guide's.  [u]
   never leaves this function, so it is never boxed.  A negative [h]
   shifts to a huge value and fails the range test. *)
let hash_bits = 30

let zipf_rank { cdf; guide } ~h =
  if h lsr hash_bits <> 0 then invalid_arg "Dist.zipf_rank: want h in [0, 2^30)";
  let u = float_of_int h *. 0x1p-30 in
  let last = Array.length cdf - 1 in
  let i = ref (Array.unsafe_get guide (h lsr (hash_bits - guide_bits))) in
  while !i < last && Array.unsafe_get cdf !i <= u do
    incr i
  done;
  !i + 1

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
  let u = Mwc.float01 rng *. sums.(last) in
  let i = ref 0 in
  while !i < last && not (u < sums.(!i)) do
    incr i
  done;
  sizes.(!i)
