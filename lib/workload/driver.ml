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

(* The live set, keyed by address.  [Hashtbl.hash] and the generic
   table's growth rule give it the generic table's buckets, so folds see
   addresses in the same order: the epilogue's free order decides which
   pages mesh. *)
module Live = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let run ?(seed = 1) (profile : Profile.t) (alloc : Allocator.t) =
  let rng = Mwc.create ~seed in
  let mem = alloc.Allocator.mem in
  let checksum = ref 0 in
  let failed = ref 0 in
  let peak_live = ref 0 in
  (* objects due to be freed at each op index, newest first *)
  let frees_at = Array.make (profile.Profile.ops + 1) [] in
  (* live table for GC roots *)
  let live = Live.create 256 in
  (match alloc.Allocator.register_roots with
  | Some register -> register (fun () -> Live.fold (fun addr () acc -> addr :: acc) live [])
  | None -> ());
  let release addr =
    Live.remove live addr;
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
  let death_rate = 1. /. Float.max 1.5 profile.Profile.lifetime_mean in
  let pick_size () =
    if profile.Profile.large_rate > 0. && Mwc.float01 rng < profile.Profile.large_rate
    then 17_000 + Mwc.below rng 48_000
    else Dist.size_class_mix rng ~classes:profile.Profile.sizes
  in
  for op = 1 to profile.Profile.ops do
    (* 1. expire due objects *)
    List.iter release frees_at.(op);
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
      Live.replace live addr ();
      if Live.length live > !peak_live then peak_live := Live.length live;
      touch op addr size;
      (* 4. schedule the free; one that falls past the last op survives
         to the end and is freed in the epilogue *)
      let lifetime = 1 + Dist.geometric rng ~p:death_rate in
      let due = op + lifetime in
      if due <= profile.Profile.ops then frees_at.(due) <- addr :: frees_at.(due))
  done;
  (* epilogue: free everything still live *)
  List.iter release (Live.fold (fun addr () acc -> addr :: acc) live []);
  {
    checksum = !checksum;
    ops_performed = profile.Profile.ops;
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
