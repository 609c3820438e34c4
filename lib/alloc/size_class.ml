let count = 12
let max_size = 8 lsl (count - 1)  (* 16 KB *)

let size c =
  if c < 0 || c >= count then invalid_arg "Size_class.size: bad class";
  8 lsl c

(* ceil(log2 sz) via bit scanning on (sz - 1). *)
let ceil_log2 sz =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + 1) in
  if sz <= 1 then 0 else go (sz - 1) 0

let of_size_exn sz =
  if sz <= 0 || sz > max_size then
    invalid_arg "Size_class.of_size_exn: not a small-object size"
  else max 0 (ceil_log2 sz - 3)

let of_size sz = if sz <= 0 || sz > max_size then None else Some (of_size_exn sz)

let is_aligned ~offset ~class_ = offset land (size class_ - 1) = 0
