module Mem = Dh_mem.Mem
module Program = Dh_alloc.Program
module Allocator = Dh_alloc.Allocator
module Trace = Dh_alloc.Trace

type kind = Uninit_like | Corruption_like of int list

type suspect = { alloc_index : int; size : int; offset : int; kind : kind }

type report = {
  replicas : int;
  objects_compared : int;
  words_compared : int;
  suspects : suspect list;
  events : Dh_obs.Tracing.event list;
}

(* One replica's end-of-run view: its allocation clock, whose live
   objects are the replica's by allocation index, and enough structure to
   resolve arbitrary values back to (allocation index, interior offset). *)
type replica_view = {
  mem : Mem.t;
  trace : Trace.t;
  (* sorted (base, reserved_end, alloc_index) for pointer resolution *)
  extents : (int * int * int) array;
}

let snapshot_replica ~config ~seed ~input ~fuel program =
  let mem = Mem.create ~obs:config.Config.obs () in
  let heap = Heap.create ~config:{ config with Config.seed; replicated = true } mem in
  let alloc = Heap.allocator heap in
  (* The allocation clock fixes allocation order and liveness (the
     injected faults and frees of the program are reflected exactly). *)
  let trace, traced = Trace.wrap alloc in
  ignore (Program.run ?fuel ~input program traced);
  let extent index (addr, sz) =
    match alloc.Allocator.find_object addr with
    | Some { Allocator.size; _ } -> (addr, addr + size, index)
    | None -> (addr, addr + sz, index)
  in
  let extents =
    List.init (Trace.clock trace) succ
    |> List.filter_map (fun index -> Option.map (extent index) (Trace.live_object trace index))
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  { mem; trace; extents = Array.of_list extents }

(* Resolve a word value against a replica's live objects: Some
   (alloc_index, offset) when it points into one. *)
let resolve view v =
  let n = Array.length view.extents in
  let rec search lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let base, stop, index = view.extents.(mid) in
      if v < base then search lo (mid - 1)
      else if v >= stop then search (mid + 1) hi
      else Some (index, v - base)
    end
  in
  search 0 (n - 1)

let all_equal = function
  | [] -> true
  | x :: rest -> List.for_all (fun y -> y = x) rest

(* Each replica's word is normalized to a key: a resolved pointer
   (logical object + offset) or the raw value.  Agreement on keys means
   the word is consistent; otherwise a majority of agreeing keys marks
   the disagreeing replicas as corruption victims, and no majority at
   all is the uninitialized-data signature. *)
let classify_divergence ~values ~resolved =
  let keys =
    List.map2
      (fun r v -> match r with Some (i, off) -> `Ptr (i, off) | None -> `Raw v)
      resolved values
  in
  if all_equal keys then None
  else begin
    let counts = Hashtbl.create 7 in
    List.iteri
      (fun i key ->
        let ids = Option.value ~default:[] (Hashtbl.find_opt counts key) in
        Hashtbl.replace counts key (i :: ids))
      keys;
    let majority = ref [] in
    Hashtbl.iter
      (fun _ ids -> if List.length ids > List.length !majority then majority := ids)
      counts;
    if List.length !majority >= 2 then begin
      let outliers =
        Hashtbl.fold
          (fun _ ids acc -> if ids == !majority then acc else ids @ acc)
          counts []
      in
      Some (Corruption_like (List.sort compare outliers))
    end
    else Some Uninit_like
  end

let run ?(config = Config.default) ?(replicas = 3)
    ?(seed_pool = Dh_rng.Seed.create ~master:0xD1A6) ?(input = "") ?fuel program =
  if replicas < 2 then invalid_arg "Diagnose.run: need at least two replicas to diff";
  let views =
    List.init replicas (fun _ ->
        snapshot_replica ~config ~seed:(Dh_rng.Seed.fresh seed_pool) ~input ~fuel
          program)
  in
  (* Objects live in every replica, by ascending allocation index. *)
  let live v index = Trace.live_object v.trace index in
  let common_indices =
    let first = List.hd views in
    List.init (Trace.clock first.trace) succ
    |> List.filter_map (fun index ->
           match live first index with
           | Some (_, sz) when List.for_all (fun v -> live v index <> None) views ->
             Some (index, sz)
           | Some _ | None -> None)
  in
  let suspects = ref [] in
  let words = ref 0 in
  List.iter
    (fun (index, sz) ->
      (* whole words only: the padding after a size-truncated tail holds
         each replica's random fill and would always false-positive *)
      let word_count = sz / 8 in
      for w = 0 to word_count - 1 do
        incr words;
        let values =
          List.map
            (fun view ->
              let addr, _ = Option.get (live view index) in
              Mem.read64 view.mem (addr + (8 * w)))
            views
        in
        if not (all_equal values) then begin
          let resolved = List.map2 (fun view v -> resolve view v) views values in
          match classify_divergence ~values ~resolved with
          | None -> ()
          | Some kind ->
            suspects := { alloc_index = index; size = sz; offset = 8 * w; kind } :: !suspects
        end
      done)
    common_indices;
  {
    replicas;
    objects_compared = List.length common_indices;
    words_compared = !words;
    suspects = List.rev !suspects;
    events =
      Dh_obs.Tracing.merge (List.map (fun v -> Dh_obs.Recorder.events (Mem.recorder v.mem)) views);
  }

let pp_kind ppf = function
  | Uninit_like -> Format.pp_print_string ppf "uninitialized-data signature"
  | Corruption_like outliers ->
    Format.fprintf ppf "corruption signature (outlier replica%s %s)"
      (if List.length outliers = 1 then "" else "s")
      (String.concat "," (List.map string_of_int outliers))

let pp_report ppf r =
  Format.fprintf ppf "diffed %d objects (%d words) across %d replicas:@."
    r.objects_compared r.words_compared r.replicas;
  if r.suspects = [] then Format.fprintf ppf "  no divergent heap state@."
  else
    List.iter
      (fun s ->
        Format.fprintf ppf "  allocation #%d (%d bytes), offset %d: %a@." s.alloc_index
          s.size s.offset pp_kind s.kind)
      r.suspects
