let count = 12
let max_size = 8 lsl (count - 1)  (* 16 KB *)

(* [size], [of_size_exn] (with [ceil_log2]) and [is_aligned] inline
   into DieHard's malloc and free; their raises stay out of line. *)
let[@inline never] bad_class () = invalid_arg "Size_class.size: bad class"

let[@inline] size c = if c < 0 || c >= count then bad_class () else 8 lsl c

(* ceil(log2 sz) is the bit length of (sz - 1), found by halving steps:
   a small size has sz - 1 < 2^14, so four compares cover it. *)
let[@inline] ceil_log2 sz =
  if sz <= 1 then 0
  else begin
    let n = ref 0 and v = ref (sz - 1) in
    if !v lsr 8 <> 0 then begin n := 8; v := !v lsr 8 end;
    if !v lsr 4 <> 0 then begin n := !n + 4; v := !v lsr 4 end;
    if !v lsr 2 <> 0 then begin n := !n + 2; v := !v lsr 2 end;
    if !v lsr 1 <> 0 then begin n := !n + 1; v := !v lsr 1 end;
    !n + !v
  end

let[@inline never] not_small () = invalid_arg "Size_class.of_size_exn: not a small-object size"

let[@inline] of_size_exn sz =
  if sz <= 0 || sz > max_size then not_small () else Int.max 0 (ceil_log2 sz - 3)

let of_size sz = if sz <= 0 || sz > max_size then None else Some (of_size_exn sz)

let[@inline] is_aligned ~offset ~class_ = offset land (size class_ - 1) = 0
