type t = { mutable counter : int; master : int }

let create ~master = { counter = 0; master }

(* splitmix64-style stream: seed_i = mix (master + i * golden).  Each draw
   is a full avalanche of a distinct input, so draws are pairwise distinct
   unless the finalizer collides (probability ~ 2^-63 per pair). *)
let golden = 0x1E3779B97F4A7C15

let mix h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x3F58476D1CE4E5B9 in
  let h = h lxor (h lsr 27) in
  let h = h * 0x14D049BB133111EB in
  h lxor (h lsr 31)

let fresh t =
  t.counter <- t.counter + 1;
  mix (t.master + (t.counter * golden))

let split ~n t =
  if n < 0 then invalid_arg "Seed.split: n must be >= 0";
  let seeds = Array.make n 0 in
  for i = 0 to n - 1 do
    seeds.(i) <- fresh t
  done;
  seeds
