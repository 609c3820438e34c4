type t = { bits : Bytes.t; length : int; mutable cardinal : int }

let create n =
  if n < 0 then invalid_arg "Bitmap.create: negative size";
  { bits = Bytes.make ((n + 7) / 8) '\000'; length = n; cardinal = 0 }

let check t i =
  if i < 0 || i >= t.length then invalid_arg "Bitmap: index out of range"

let get t i =
  check t i;
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let b = Char.code (Bytes.get t.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  if b land mask = 0 then begin
    Bytes.set t.bits (i lsr 3) (Char.chr (b lor mask));
    t.cardinal <- t.cardinal + 1
  end

let clear t i =
  check t i;
  let b = Char.code (Bytes.get t.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  if b land mask <> 0 then begin
    Bytes.set t.bits (i lsr 3) (Char.chr (b land lnot mask land 0xFF));
    t.cardinal <- t.cardinal - 1
  end

let cardinal t = t.cardinal

let copy t = { bits = Bytes.copy t.bits; length = t.length; cardinal = t.cardinal }

let assign t ~from =
  if t.length <> from.length then invalid_arg "Bitmap.assign: length mismatch";
  Bytes.blit from.bits 0 t.bits 0 (Bytes.length from.bits);
  t.cardinal <- from.cardinal

let iter_set t f =
  for byte = 0 to Bytes.length t.bits - 1 do
    let b = Char.code (Bytes.get t.bits byte) in
    if b <> 0 then
      for bit = 0 to 7 do
        if b land (1 lsl bit) <> 0 then begin
          let i = (byte lsl 3) + bit in
          if i < t.length then f i
        end
      done
  done

let check_window t ~off ~len =
  if len < 0 then invalid_arg "Bitmap: negative window length";
  if off < 0 || off + len > t.length then
    invalid_arg "Bitmap: window out of range"

(* The disjointness test has a byte-chunked fast path when the windows
   are byte-aligned (every meshable size class gives slots-per-page that
   is either a multiple of 8 or sub-byte) and a bitwise fallback
   otherwise. *)
let window_disjoint t ~a ~b ~len =
  check_window t ~off:a ~len;
  check_window t ~off:b ~len;
  if a land 7 = 0 && b land 7 = 0 && len land 7 = 0 then begin
    (* O(words): compare whole bytes of the two windows. *)
    let ba = a lsr 3 and bb = b lsr 3 in
    let nbytes = len lsr 3 in
    let rec go i =
      i >= nbytes
      || (Char.code (Bytes.unsafe_get t.bits (ba + i))
          land Char.code (Bytes.unsafe_get t.bits (bb + i))
          = 0
          && go (i + 1))
    in
    go 0
  end
  else begin
    let bit off i =
      Char.code (Bytes.unsafe_get t.bits ((off + i) lsr 3))
      land (1 lsl ((off + i) land 7))
      <> 0
    in
    let rec go i = i >= len || ((not (bit a i && bit b i)) && go (i + 1)) in
    go 0
  end

let window_iter_set t ~off ~len f =
  check_window t ~off ~len;
  (* Indices passed to [f] are window-relative. *)
  for i = 0 to len - 1 do
    if
      Char.code (Bytes.unsafe_get t.bits ((off + i) lsr 3))
      land (1 lsl ((off + i) land 7))
      <> 0
    then f i
  done

let iter_clear t f =
  for byte = 0 to Bytes.length t.bits - 1 do
    let b = Char.code (Bytes.unsafe_get t.bits byte) in
    if b <> 0xFF then
      for bit = 0 to 7 do
        if b land (1 lsl bit) = 0 then begin
          let i = (byte lsl 3) + bit in
          if i < t.length then f i
        end
      done
  done
