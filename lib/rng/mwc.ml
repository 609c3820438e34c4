type t = { mutable z : int; mutable w : int }

let mask16 = 0xFFFF
let mask32 = 0xFFFFFFFF

(* 64-bit finalizer (splitmix64-style) used to turn arbitrary integer seeds
   into well-mixed lag words.  Works on the 63-bit OCaml int; the loss of
   the top bit is irrelevant for seeding purposes. *)
let mix h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x3F58476D1CE4E5B9 in
  let h = h lxor (h lsr 27) in
  let h = h * 0x14D049BB133111EB in
  h lxor (h lsr 31)

(* A multiply-with-carry stream degenerates if its lag word is 0 (it stays
   0 forever) so we nudge zero words to a fixed non-zero constant. *)
let nonzero32 x = if x land mask32 = 0 then 0x9E3779B9 else x land mask32

let create ~seed =
  let a = mix seed in
  let b = mix (a + 0x632BE59BD9B4E019) in
  { z = nonzero32 a; w = nonzero32 b }

let copy t = { z = t.z; w = t.w }

let assign t ~from =
  t.z <- from.z;
  t.w <- from.w

let reseed t ~seed =
  let fresh = create ~seed in
  assign t ~from:fresh

let next_u32 t =
  t.z <- (36969 * (t.z land mask16)) + (t.z lsr 16);
  t.w <- (18000 * (t.w land mask16)) + (t.w lsr 16);
  ((t.z lsl 16) + t.w) land mask32

(* Rejection sampling: draw from the largest multiple of [n] that fits in
   32 bits, then reduce.  Expected < 2 draws.  Top-level, so a call
   allocates no closure. *)
let rec draw t n limit =
  let x = next_u32 t in
  if x < limit then x mod n else draw t n limit

(* For a power-of-two [n] the rejection limit is 2^32 itself: no draw
   is ever rejected and [x mod n] is [x land (n - 1)], so this branch
   draws the very same stream without a division. *)
let below t n =
  if n <= 0 then invalid_arg "Mwc.below: bound must be positive";
  if n > mask32 + 1 then invalid_arg "Mwc.below: bound exceeds 2^32";
  if n land (n - 1) = 0 then next_u32 t land (n - 1)
  else draw t n ((mask32 + 1) / n * n)

let bits t b =
  if b < 0 || b > 30 then invalid_arg "Mwc.bits: want 0 <= bits <= 30";
  if b = 0 then 0 else next_u32 t lsr (32 - b)

let float01 t = float_of_int (next_u32 t) /. 4294967296.

(* Bulk draws: the lag words stay in locals and every two draws become one
   8-byte little-endian store, the low word first — byte for byte what
   storing each [next_u32] least-significant byte first would write. *)
let fill_bytes t buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then invalid_arg "Mwc.fill_bytes";
  let z = ref t.z and w = ref t.w and i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let z1 = (36969 * (!z land mask16)) + (!z lsr 16) in
    let w1 = (18000 * (!w land mask16)) + (!w lsr 16) in
    let z2 = (36969 * (z1 land mask16)) + (z1 lsr 16) in
    let w2 = (18000 * (w1 land mask16)) + (w1 lsr 16) in
    let lo = ((z1 lsl 16) + w1) land mask32 and hi = ((z2 lsl 16) + w2) land mask32 in
    Bytes.set_int64_le buf !i (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32));
    z := z2;
    w := w2;
    i := !i + 8
  done;
  t.z <- !z;
  t.w <- !w;
  (* The last 1..7 bytes: one or two draws, the second possibly partial. *)
  while !i < stop do
    let v = next_u32 t in
    for j = 0 to min 4 (stop - !i) - 1 do
      Bytes.unsafe_set buf (!i + j) (Char.unsafe_chr ((v lsr (8 * j)) land 0xFF))
    done;
    i := !i + 4
  done
