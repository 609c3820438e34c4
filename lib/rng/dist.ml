let geometric rng ~p =
  if p <= 0. || p > 1. then invalid_arg "Dist.geometric: want 0 < p <= 1";
  if p = 1. then 0
  else begin
    (* Inversion: floor (log u / log (1-p)) with u in (0,1]. *)
    let u = 1. -. Mwc.float01 rng in
    int_of_float (floor (log u /. log (1. -. p)))
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

(* The alloc driver calls this once per op, so it loops over [classes]
   with its sums in unboxed float locals and allocates nothing of its
   own.  The total is summed left to right, and one [float01] draw picks
   the first class whose running sum exceeds it; the last class takes
   the remainder. *)
let size_class_mix rng ~classes =
  let n = Array.length classes in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. snd classes.(i)
  done;
  if !total <= 0. then invalid_arg "Dist.size_class_mix: weights sum to zero";
  let u = Mwc.float01 rng *. !total in
  let i = ref 0 and acc = ref (snd classes.(0)) in
  while !i < n - 1 && not (u < !acc) do
    incr i;
    acc := !acc +. snd classes.(!i)
  done;
  fst classes.(!i)
