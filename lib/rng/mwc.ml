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

(* [next_u32] and [below]'s power-of-two branch inline into the heap's
   probe loop.  So does [float01]: left out of line with [next_u32]
   inlined into it, it grows past the inliner's size bound, and every
   [Dist] draw then boxes the float it returns. *)
let[@inline] next_u32 t =
  t.z <- (36969 * (t.z land mask16)) + (t.z lsr 16);
  t.w <- (18000 * (t.w land mask16)) + (t.w lsr 16);
  ((t.z lsl 16) + t.w) land mask32

(* Rejection sampling: draw from the largest multiple of [n] that fits in
   32 bits, then reduce.  Expected < 2 draws.  Top-level, so a call
   allocates no closure. *)
let rec draw t n limit =
  let x = next_u32 t in
  if x < limit then x mod n else draw t n limit

let[@inline never] bad_bound n =
  if n <= 0 then invalid_arg "Mwc.below: bound must be positive"
  else invalid_arg "Mwc.below: bound exceeds 2^32"

(* For a power-of-two [n] the rejection limit is 2^32 itself: no draw
   is ever rejected and [x mod n] is [x land (n - 1)], so this branch
   draws the very same stream without a division. *)
let[@inline] below t n =
  if n <= 0 || n > mask32 + 1 then bad_bound n
  else if n land (n - 1) = 0 then next_u32 t land (n - 1)
  else draw t n ((mask32 + 1) / n * n)

let bits t b =
  if b < 0 || b > 30 then invalid_arg "Mwc.bits: want 0 <= bits <= 30";
  if b = 0 then 0 else next_u32 t lsr (32 - b)

let[@inline] float01 t = float_of_int (next_u32 t) /. 4294967296.

external unsafe_set_int32_ne : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Bulk draws: the lag words stay in locals and each draw becomes one
   4-byte little-endian store — byte for byte what storing each
   [next_u32] least-significant byte first would write.  The store is
   unchecked, the range being checked once on entry: a bounds check per
   store ([Bytes.set_int32_le]) raised minic's perfbench
   [slowdown_vs_freelist] by 5% (10 of 10 pairs, a 2-core x86-64 box),
   the fill running only on DieHard's side.  [Sys.big_endian] is a constant, so its branch
   compiles away. *)
let fill_bytes t buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then invalid_arg "Mwc.fill_bytes";
  let z = ref t.z and w = ref t.w and i = ref off in
  let stop = off + len in
  while !i + 4 <= stop do
    let z' = (36969 * (!z land mask16)) + (!z lsr 16) in
    let w' = (18000 * (!w land mask16)) + (!w lsr 16) in
    let v = Int32.of_int ((z' lsl 16) + w') in
    unsafe_set_int32_ne buf !i (if Sys.big_endian then swap32 v else v);
    z := z';
    w := w';
    i := !i + 4
  done;
  t.z <- !z;
  t.w <- !w;
  (* The last 1..3 bytes: one more draw, stored in part. *)
  if !i < stop then begin
    let v = next_u32 t in
    for j = 0 to stop - !i - 1 do
      Bytes.unsafe_set buf (!i + j) (Char.unsafe_chr ((v lsr (8 * j)) land 0xFF))
    done
  end
