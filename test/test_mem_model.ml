(* State-machine test: Dh_mem.Mem against the naive Mem_model.

   A random sequence of operations — mapping, protection, byte, word,
   word-range and bulk accesses, C-string stores, page aliasing and
   checkpoint / rewind / discard, closing with several armed windows —
   runs on both.  After every step the two must agree on the
   result (value, exact fault, or rejected argument), on every mapped
   byte, on the mapped/meshed/touched page counts and on the access and
   TLB/cache-miss counters.  Each step also checks the frame property:
   the bytes of every segment the operation's range does not reach are
   unchanged.  A failing sequence shrinks to a short counterexample. *)

module Mem = Dh_mem.Mem
module Fault = Dh_mem.Fault
module Model = Mem_model

let page = Mem.page_size

(* An address is a segment selector (an index, modulo the number of
   live segments, into them in address order) plus an offset, so a
   sequence stays meaningful when shrinking drops some of its ops.  A
   non-negative offset wraps within the segment and the first bytes of
   the hole page after it; a negative one reaches back into the hole
   before it. *)
type loc = { seg : int; off : int }

type op =
  | Mmap of int  (* pages *)
  | Munmap of loc
  | Protect of loc * int * Mem.prot
  | Read8 of loc
  | Write8 of loc * int
  | Read64 of loc
  | Write64 of loc * int
  | Read_words of loc * int  (* words *)
  | Write_words of loc * int list
  | Read_bytes of loc * int
  | Write_bytes of loc * string
  | Fill of loc * int * char
  | Fill_random of loc * int * int  (* seed *)
  | Write_cstring of loc * string
  | Alias of int * int * int * (int * int) list  (* seg, src page, dst page, live *)
  | Checkpoint
  | Rewind
  | Discard

let pick model seg =
  match Model.extents model with
  | [] -> (16 * page, page)
  | segs -> List.nth segs (seg mod List.length segs)

let resolve model { seg; off } =
  let base, len = pick model seg in
  base + if off < 0 then off else off mod (len + 48)

let pp_prot = function
  | Mem.No_access -> "No_access"
  | Mem.Read_only -> "Read_only"
  | Mem.Read_write -> "Read_write"

let show_op op =
  let l { seg; off } = Printf.sprintf "s%d%+d" seg off in
  match op with
  | Mmap n -> Printf.sprintf "mmap %d pages" n
  | Munmap a -> "munmap " ^ l a
  | Protect (a, len, p) -> Printf.sprintf "protect %s %d %s" (l a) len (pp_prot p)
  | Read8 a -> "read8 " ^ l a
  | Write8 (a, v) -> Printf.sprintf "write8 %s %d" (l a) v
  | Read64 a -> "read64 " ^ l a
  | Write64 (a, v) -> Printf.sprintf "write64 %s %d" (l a) v
  | Read_words (a, n) -> Printf.sprintf "read_words %s %d" (l a) n
  | Write_words (a, vs) -> Printf.sprintf "write_words %s %d words" (l a) (List.length vs)
  | Read_bytes (a, n) -> Printf.sprintf "read_bytes %s %d" (l a) n
  | Write_bytes (a, s) -> Printf.sprintf "write_bytes %s %S" (l a) s
  | Fill (a, n, c) -> Printf.sprintf "fill %s %d %C" (l a) n c
  | Fill_random (a, n, seed) -> Printf.sprintf "fill_random %s %d seed %d" (l a) n seed
  | Write_cstring (a, s) ->
    Printf.sprintf "write_cstring %s %d bytes %S" (l a) (String.length s)
      (if String.length s <= 40 then s else String.sub s 0 40 ^ "...")
  | Alias (s, src, dst, live) ->
    Printf.sprintf "alias s%d page %d -> page %d live [%s]" s src dst
      (String.concat "; " (List.map (fun (o, n) -> Printf.sprintf "%d+%d" o n) live))
  | Checkpoint -> "checkpoint"
  | Rewind -> "rewind"
  | Discard -> "discard"

(* --- generation: offsets cluster around page and line boundaries --- *)

let gen_loc =
  QCheck.Gen.(
    map2
      (fun seg off -> { seg; off })
      (int_bound 7)
      (frequency
         [
           (3, int_range (-32) ((4 * page) + 32));
           (3, map2 (fun p d -> (p * page) + d) (int_range 0 4) (int_range (-12) 12));
           (1, map2 (fun l d -> (l * 64) + d) (int_range 0 200) (int_range (-9) 9));
         ]))

let gen_len =
  QCheck.Gen.(frequency [ (3, int_range 0 80); (2, int_range 0 (2 * page)); (1, return 0) ])

let gen_prot =
  QCheck.Gen.(frequencyl [ (2, Mem.No_access); (2, Mem.Read_only); (3, Mem.Read_write) ])

let gen_text =
  QCheck.Gen.(
    map
      (fun cs -> String.of_seq (List.to_seq cs))
      (list_size gen_len (frequencyl [ (1, '\000'); (4, 'a'); (2, 'z'); (1, '\255') ])))

(* C strings for [write_cstring], biased toward runs that cross pages and
   run off the end of a 1-4 page segment into its hole page; the bytes
   vary with position so a misplaced page run shows. *)
let gen_cstring =
  QCheck.Gen.(
    frequency
      [
        (2, gen_text);
        ( 3,
          map2
            (fun n seed -> String.init n (fun i -> Char.chr (1 + ((i * 7) + seed) mod 255)))
            (frequency
               [ (2, int_range (page - 64) (page + 64)); (3, int_range page (3 * page)) ])
            (int_bound 254) );
      ])

(* A store start near a page's end, so even short strings cross it. *)
let gen_cstring_loc =
  QCheck.Gen.(
    frequency
      [
        (2, gen_loc);
        ( 1,
          map3
            (fun seg p d -> { seg; off = (p * page) - d })
            (int_bound 7) (int_range 1 4) (int_range 1 48) );
      ])

(* Word counts for the word ranges: short runs, which a start near a
   page's end carries across it, and runs of up to two pages and more. *)
let gen_words =
  QCheck.Gen.(
    frequency
      [ (4, int_range 1 12); (2, int_range 0 ((2 * page / 8) + 8)); (1, return 0) ])

let gen_pages = QCheck.Gen.frequencyl [ (2, 1); (4, 2); (4, 3); (2, 4); (1, 16) ]

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun n -> Mmap n) gen_pages);
        (1, map (fun a -> Munmap { a with off = (if a.off mod 3 = 0 then page else 0) }) gen_loc);
        ( 3,
          map3
            (fun a n p -> Protect (a, n, p))
            gen_loc
            (frequency [ (4, int_range 1 page); (1, int_range 0 (3 * page)) ])
            gen_prot );
        (4, map (fun a -> Read8 a) gen_loc);
        (4, map2 (fun a v -> Write8 (a, v)) gen_loc (int_bound 1000));
        (5, map (fun a -> Read64 a) gen_loc);
        (5, map2 (fun a v -> Write64 (a, v)) gen_loc int);
        (3, map2 (fun a n -> Read_words (a, n)) gen_cstring_loc gen_words);
        ( 3,
          map3
            (fun a n v -> Write_words (a, List.init n (fun i -> v + (i * 0x10001))))
            gen_cstring_loc gen_words int );
        (3, map2 (fun a n -> Read_bytes (a, n)) gen_loc gen_len);
        (3, map2 (fun a s -> Write_bytes (a, s)) gen_loc gen_text);
        ( 2,
          map3
            (fun a n c -> Fill (a, n, c))
            gen_loc gen_len
            (oneofl [ '\000'; 'x'; '\255' ]) );
        (2, map3 (fun a n s -> Fill_random (a, n, s)) gen_loc gen_len (int_bound 1000));
        (4, map2 (fun a s -> Write_cstring (a, s)) gen_cstring_loc gen_cstring);
        ( 3,
          map3
            (fun (s, src, dst) live bad ->
              Alias (s, src, dst, if bad then (page - 4, 8) :: live else live))
            (triple (int_bound 7) (int_bound 3) (int_bound 3))
            (list_size (int_bound 3)
               (map2 (fun o n -> (o, min n (page - o))) (int_bound (page - 1)) (int_bound 300)))
            (frequencyl [ (9, false); (1, true) ]) );
        (3, return Checkpoint);
        (2, return Rewind);
        (1, return Discard);
      ])

(* Several checkpoint windows per sequence, so later windows pre-image
   into the page buffers earlier ones gave back: each window is armed,
   runs a few ops, and closes by being committed (the next arm), by a
   discard, by a rewind, or by a rewind, more ops and a second rewind. *)
let gen_window =
  QCheck.Gen.(
    map3
      (fun body again close ->
        (Checkpoint :: body)
        @
        match close with
        | 0 -> []
        | 1 -> [ Discard ]
        | 2 -> [ Rewind ]
        | _ -> (Rewind :: again) @ [ Rewind ])
      (list_size (int_range 0 10) gen_op)
      (list_size (int_range 0 4) gen_op)
      (int_bound 3))

(* The list shrinker drops whole ops; this one halves an op's length. *)
let shrink_op op yield =
  let halve n k = if n > 0 then k (n / 2) in
  match op with
  | Read_bytes (a, n) -> halve n (fun n -> yield (Read_bytes (a, n)))
  | Read_words (a, n) -> halve n (fun n -> yield (Read_words (a, n)))
  | Write_words (a, vs) ->
    halve (List.length vs) (fun n -> yield (Write_words (a, List.filteri (fun i _ -> i < n) vs)))
  | Write_bytes (a, s) ->
    halve (String.length s) (fun n -> yield (Write_bytes (a, String.sub s 0 n)))
  | Write_cstring (a, s) ->
    halve (String.length s) (fun n -> yield (Write_cstring (a, String.sub s 0 n)))
  | Fill (a, n, c) -> halve n (fun n -> yield (Fill (a, n, c)))
  | Fill_random (a, n, seed) -> halve n (fun n -> yield (Fill_random (a, n, seed)))
  | _ -> ()

(* --- running one op on both sides --- *)

type outcome = Done | Value of int | Text of string | Trap of Fault.t | Rejected

let show_outcome = function
  | Done -> "done"
  | Value v -> string_of_int v
  | Text s -> Printf.sprintf "%S" s
  | Trap f -> Fault.to_string f
  | Rejected -> "Invalid_argument"

let outcome f =
  match f () with
  | o -> o
  | exception Fault.Error e -> Trap e
  | exception Invalid_argument _ -> Rejected

let random_bytes seed len =
  let b = Bytes.create len in
  Dh_rng.Mwc.fill_bytes (Dh_rng.Mwc.create ~seed) b ~off:0 ~len;
  Bytes.to_string b

(* Run [op] on the real memory and on the model; returns both outcomes
   and the address range the op reaches (for the frame check). *)
let apply mem model op =
  let at a = resolve model a in
  let unit f () = f (); Done in
  let both fm fr = (outcome fm, outcome fr) in
  match op with
  | Mmap n ->
    ( both (fun () -> Value (Mem.mmap mem (n * page))) (fun () -> Value (Model.mmap model n)),
      Some (0, 0) )
  | Munmap a ->
    let b = at a in
    (both (unit (fun () -> Mem.munmap mem b)) (unit (fun () -> Model.munmap model b)), Some (b, 1))
  | Protect (a, len, p) ->
    let b = at a in
    ( both
        (unit (fun () -> Mem.protect mem ~addr:b ~len p))
        (unit (fun () -> Model.protect model ~addr:b ~len p)),
      Some (b, len) )
  | Read8 a ->
    let b = at a in
    (both (fun () -> Value (Mem.read8 mem b)) (fun () -> Value (Model.read8 model b)), Some (b, 1))
  | Write8 (a, v) ->
    let b = at a in
    ( both (unit (fun () -> Mem.write8 mem b v)) (unit (fun () -> Model.write8 model b v)),
      Some (b, 1) )
  | Read64 a ->
    let b = at a in
    ( both (fun () -> Value (Mem.read64 mem b)) (fun () -> Value (Model.read64 model b)),
      Some (b, 8) )
  | Write64 (a, v) ->
    let b = at a in
    ( both (unit (fun () -> Mem.write64 mem b v)) (unit (fun () -> Model.write64 model b v)),
      Some (b, 8) )
  | Read_words (a, n) ->
    (* One word more than read: the buffer past [8n] must keep its
       bytes, and a faulting read must leave all of it alone. *)
    let b = at a in
    let buf = Bytes.make (8 * (n + 1)) '\xa5' in
    let fresh = Bytes.to_string buf in
    ( both
        (fun () ->
          match Mem.read_words mem ~addr:b buf ~n with
          | () -> Text (Bytes.to_string buf)
          | exception e ->
            if Bytes.to_string buf <> fresh then Text "read_words wrote its buffer, then raised"
            else raise e)
        (fun () -> Text (Model.read_words model ~addr:b ~n ^ String.make 8 '\xa5')),
      Some (b, 8 * n) )
  | Write_words (a, vs) ->
    (* The buffer holds a word more than is stored, which must stay out
       of memory. *)
    let b = at a and n = List.length vs in
    let buf = Bytes.make (8 * (n + 1)) '\x5a' in
    List.iteri (fun i v -> Bytes.set_int64_le buf (8 * i) (Int64.of_int v)) vs;
    ( both
        (unit (fun () -> Mem.write_words mem ~addr:b buf ~n))
        (unit (fun () -> Model.write_words model ~addr:b vs)),
      Some (b, 8 * n) )
  | Read_bytes (a, len) ->
    let b = at a in
    ( both
        (fun () -> Text (Mem.read_bytes mem ~addr:b ~len))
        (fun () -> Text (Model.read_bytes model ~addr:b ~len)),
      Some (b, len) )
  | Write_bytes (a, s) ->
    let b = at a in
    ( both
        (unit (fun () -> Mem.write_bytes mem ~addr:b s))
        (unit (fun () -> Model.write_bytes model ~addr:b s)),
      Some (b, String.length s) )
  | Fill (a, len, c) ->
    let b = at a in
    ( both
        (unit (fun () -> Mem.fill mem ~addr:b ~len c))
        (unit (fun () -> Model.write_bytes model ~addr:b (String.make len c))),
      Some (b, len) )
  | Fill_random (a, len, seed) ->
    let b = at a in
    ( both
        (unit (fun () -> Mem.fill_random mem ~addr:b ~len (Dh_rng.Mwc.create ~seed)))
        (unit (fun () -> Model.write_bytes model ~addr:b (random_bytes seed len))),
      Some (b, len) )
  | Write_cstring (a, s) ->
    let b = at a in
    ( both
        (unit (fun () -> Mem.write_cstring mem ~addr:b s))
        (unit (fun () -> Model.write_cstring model ~addr:b s)),
      Some (b, String.length s + 1) )
  | Alias (s, src, dst, live) ->
    (* Pages of one segment (the destination may also be its hole). *)
    let base, len = pick model s in
    let pages = len / page in
    let src = base + (src mod pages * page) and dst = base + (dst mod (pages + 1) * page) in
    ( both
        (unit (fun () -> Mem.alias mem ~src ~dst ~live))
        (unit (fun () -> Model.alias model ~src ~dst ~live)),
      Some (min src dst, abs (src - dst) + page) )
  | Checkpoint ->
    ( both (unit (fun () -> Mem.checkpoint mem)) (unit (fun () -> Model.checkpoint model)),
      Some (0, 0) )
  | Discard ->
    ( both
        (unit (fun () -> Mem.discard_checkpoint mem))
        (unit (fun () -> Model.discard_checkpoint model)),
      Some (0, 0) )
  | Rewind ->
    (both (unit (fun () -> ignore (Mem.rewind mem))) (unit (fun () -> Model.rewind model)), None)

(* --- comparing the two states --- *)

let segments model =
  List.map (fun (base, _) -> (base, Option.get (Model.contents model base))) (Model.extents model)

let agree mem model =
  let s = Mem.stats mem in
  let counters =
    [
      ("reads", s.Mem.reads, model.Model.reads);
      ("writes", s.Mem.writes, model.Model.writes);
      ("tlb_misses", s.Mem.tlb_misses, model.Model.tlb_misses);
      ("cache_misses", s.Mem.cache_misses, model.Model.cache_misses);
      ("touched_pages", Mem.touched_pages mem, model.Model.touched_pages);
      ("mapped_bytes", Mem.mapped_bytes mem, Model.mapped_bytes model);
      ("meshed_pages", Mem.meshed_pages mem, Model.meshed_pages model);
    ]
  in
  match List.find_opt (fun (_, a, b) -> a <> b) counters with
  | Some (name, a, b) -> Error (Printf.sprintf "%s: mem %d, model %d" name a b)
  | None -> (
    let bad =
      List.find_opt
        (fun (base, bytes) ->
          Mem.segment_of mem base <> Some (base, String.length bytes)
          || Mem.inspect mem ~addr:base ~len:(String.length bytes) <> bytes)
        (segments model)
    in
    match bad with
    | Some (base, _) -> Error (Printf.sprintf "segment 0x%x: contents differ" base)
    | None -> Ok ())

let run_sequence ops =
  let mem = Mem.create () and model = Model.create () in
  let rec go i = function
    | [] -> true
    | op :: rest ->
      let fail msg = QCheck.Test.fail_reportf "step %d (%s): %s" i (show_op op) msg in
      let before = segments model in
      let (on_mem, on_model), reach = apply mem model op in
      if on_mem <> on_model then
        fail (Printf.sprintf "mem %s, model %s" (show_outcome on_mem) (show_outcome on_model));
      (match agree mem model with Error e -> fail e | Ok () -> ());
      (* Frame: a segment the op's range does not reach keeps its bytes. *)
      (match reach with
      | None -> ()
      | Some (addr, len) ->
        List.iter
          (fun (base, bytes) ->
            let n = String.length bytes in
            if
              (base + n <= addr || base >= addr + len)
              && Mem.is_mapped mem base
              && Mem.inspect mem ~addr:base ~len:n <> bytes
            then fail (Printf.sprintf "frame: segment 0x%x changed" base))
          before);
      go (i + 1) rest
  in
  go 1 ops

let prop_mem_refines_model =
  QCheck.Test.make ~name:"Mem refines Mem_model: results, faults, bytes, counters, frame"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map show_op ops))
       ~shrink:(QCheck.Shrink.list ~shrink:shrink_op)
       QCheck.Gen.(
         map3
           (fun n ops windows -> (Mmap n :: ops) @ List.concat windows)
           gen_pages
           (list_size (int_range 0 39) gen_op)
           (list_size (int_range 0 4) gen_window)))
    run_sequence

let suite = [ QCheck_alcotest.to_alcotest prop_mem_refines_model ]
