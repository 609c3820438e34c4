module Allocator = Dh_alloc.Allocator
module Mem = Dh_mem.Mem
module Mwc = Dh_rng.Mwc
module Dist = Dh_rng.Dist

type result = {
  checksum : int;
  ops_performed : int;
  failed_allocations : int;
  peak_live : int;
}

(* Cheap integer mixing used as the "application compute" between
   allocator operations. *)
let[@inline] mix h =
  let h = h lxor (h lsr 16) in
  let h = h * 0x45D9F3B land max_int in
  h lxor (h lsr 13)

(* The live set is enumerated in the order a [Hashtbl.Make] over
   addresses created with 256 buckets folds it into a list with
   [fun addr () acc -> addr :: acc]: the fold walks buckets upwards and
   each bucket newest first, so the list holds the buckets in descending
   index and each bucket oldest first.  The epilogue frees in this
   order, which decides what meshes, and the GC roots come in it, which
   decides gc-bdw's mark order; the Figure-5 pins were recorded in it.

   [table_hash] is [Hashtbl.hash] on an int: the runtime's MurmurHash3
   mix of the tagged word (its two 32-bit halves folded as the runtime
   does on a 64-bit machine), its final mix, then 30 bits. *)
let m32 = 0xFFFF_FFFF
let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land m32

let table_hash x =
  let d = ((x asr 31) lxor (x asr 62) lxor ((x lsl 1) lor 1)) land m32 in
  let d = rotl32 (d * 0xcc9e2d51 land m32) 15 * 0x1b873593 land m32 in
  let h = ((rotl32 d 13 * 5) + 0xe6546b64) land m32 in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land m32 in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land m32 in
  (h lxor (h lsr 16)) land 0x3FFF_FFFF

(* A table created with 256 buckets doubles them on each insertion that
   leaves more than two entries per bucket, and never shrinks. *)
let table_buckets peak =
  let rec grow n = if peak > 2 * n then grow (2 * n) else n in
  grow 256

(* Ops are array indices, so they fit in 32 bits; a sort key puts the
   descending bucket above them. *)
let live_order ~peak ~born live n =
  let mask = table_buckets peak - 1 in
  let keys =
    Array.init n (fun i ->
        let op = live.(i) in
        ((mask - (table_hash born.(op) land mask)) lsl 32) lor op)
  in
  Array.sort Int.compare keys;
  Array.map (fun k -> k land m32) keys

(* The bookkeeping is int arrays indexed by op, so an op allocates
   nothing of its own and hashes nothing:
   - [born.(op)] is the address op's object lives at, 0 once freed;
   - the ops due to be freed at op [d] are the list [due_head.(d)],
     [due_next.(op)], ..., ending at 0, newest first;
   - [live.(0 .. count - 1)] holds the live ops densely, [slot.(op)]
     being op's index there, so a free is a swap-remove and enumerating
     the live set costs O(live log live). *)
let run ?(seed = 1) (profile : Profile.t) (alloc : Allocator.t) =
  let rng = Mwc.create ~seed in
  let mem = alloc.Allocator.mem in
  let ops = profile.Profile.ops in
  let checksum = ref 0 in
  let failed = ref 0 in
  let peak_live = ref 0 in
  let born = Array.make (ops + 1) 0 in
  let due_head = Array.make (ops + 1) 0 and due_next = Array.make (ops + 1) 0 in
  let live = Array.make (ops + 1) 0 and slot = Array.make (ops + 1) 0 in
  let count = ref 0 in
  let in_table_order () = live_order ~peak:!peak_live ~born live !count in
  (match alloc.Allocator.register_roots with
  | Some register ->
    register (fun () -> Array.fold_right (fun op acc -> born.(op) :: acc) (in_table_order ()) [])
  | None -> ());
  let release op =
    let addr = born.(op) in
    born.(op) <- 0;
    let last = !count - 1 in
    let moved = live.(last) in
    live.(slot.(op)) <- moved;
    slot.(moved) <- slot.(op);
    count := last;
    alloc.Allocator.free addr
  in
  (* The words an object's touch writes and reads back, grown to the
     largest touch so far. *)
  let scratch = ref (Bytes.create 256) in
  let touch op addr size =
    (* Write then read a prefix of the object, as one range each.
       Values are derived from the op counter, never from addresses, so
       the checksum is identical under every allocator. *)
    let bytes =
      Int.max 8 (int_of_float (float_of_int size *. profile.Profile.touch_fraction))
    in
    let words = Int.min (bytes / 8) (size / 8) in
    if 8 * words > Bytes.length !scratch then scratch := Bytes.create (8 * words);
    let buf = !scratch in
    for w = 0 to words - 1 do
      Bytes.set_int64_le buf (8 * w) (Int64.of_int (mix ((op * 1021) + w)))
    done;
    Mem.write_words mem ~addr buf ~n:words;
    Mem.read_words mem ~addr buf ~n:words;
    let sum = ref !checksum in
    for w = 0 to words - 1 do
      sum := !sum + Bytes.get_uint16_le buf (8 * w)
    done;
    checksum := !sum land max_int
  in
  (* the chance that a live object dies at each op: lifetimes are
     geometric with the profile's mean *)
  let lifetime = Dist.geometric ~p:(1. /. Float.max 1.5 profile.Profile.lifetime_mean) in
  let sizes = Dist.size_class_mix ~classes:profile.Profile.sizes in
  let pick_size () =
    if profile.Profile.large_rate > 0. && Mwc.float01 rng < profile.Profile.large_rate then
      17_000 + Mwc.below rng 48_000
    else Dist.size_class_draw sizes rng
  in
  for op = 1 to ops do
    (* 1. expire due objects *)
    let due = ref due_head.(op) in
    while !due <> 0 do
      let next = due_next.(!due) in
      release !due;
      due := next
    done;
    (* 2. application compute *)
    let acc = ref op in
    for _ = 1 to profile.Profile.compute_per_op do
      acc := mix !acc
    done;
    checksum := (!checksum + (!acc land 0xFF)) land max_int;
    (* 3. allocate and touch *)
    let size = pick_size () in
    (match alloc.Allocator.malloc size with
    | None -> incr failed
    | Some addr ->
      born.(op) <- addr;
      live.(!count) <- op;
      slot.(op) <- !count;
      incr count;
      if !count > !peak_live then peak_live := !count;
      touch op addr size;
      (* 4. schedule the free; one that falls past the last op survives
         to the end and is freed in the epilogue *)
      let due = op + 1 + Dist.geometric_draw lifetime rng in
      if due <= ops then begin
        due_next.(op) <- due_head.(due);
        due_head.(due) <- op
      end)
  done;
  (* epilogue: free everything still live *)
  Array.iter release (in_table_order ());
  {
    checksum = !checksum;
    ops_performed = ops;
    failed_allocations = !failed;
    peak_live = !peak_live;
  }

let live_load_factor (profile : Profile.t) =
  let mean_size =
    let total_w = Array.fold_left (fun acc (_, w) -> acc +. w) 0. profile.Profile.sizes in
    Array.fold_left
      (fun acc (s, w) -> acc +. (float_of_int s *. w /. total_w))
      0. profile.Profile.sizes
  in
  mean_size *. profile.Profile.lifetime_mean

let heap_size_for profile =
  (* Each size class gets its own region; be generous so the busiest
     class stays under its 1/M threshold. *)
  let live = live_load_factor profile in
  let region = int_of_float (live *. 16.) in
  let region = max region (256 * 1024) in
  let region = (region + 4095) / 4096 * 4096 in
  Dh_alloc.Size_class.count * region
