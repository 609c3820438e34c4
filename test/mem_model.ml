(* A naive reference model of Dh_mem.Mem, for the state-machine test.

   Everything here is the obvious, slow version: bytes live in per-page
   buffers and every access walks its range one byte at a time, looking
   up the segment, charging the TLB and cache and checking protection
   for that byte alone.  The real simulator validates by page and line
   runs; the state-machine test holds the two in a simulation relation
   (same results, same faults, same bytes, same counters after every
   operation).

   - Aliasing is sharing: a meshed virtual page points at the same
     [page] record as its source, so writes through either are seen by
     both with no translation code at all.
   - A checkpoint copies the whole state; rewind copies it back and
     keeps the copy (a second rewind returns to the same state).  Arming
     again replaces the copy: the old window commits.  What the real simulator
     does not rewind — the statistics, the cost-model state and the
     written-page flags — is not part of the snapshot either.
   - Counting: byte and word operations count one access even when they
     fault, bulk operations count [len] only on success, and a range of
     [n] words counts [n] only on success.
     [write_cstring] is the bytewise [write8] loop it stands for. *)

module Mem = Dh_mem.Mem
module Fault = Dh_mem.Fault

let page_size = Mem.page_size

type page = { bytes : Bytes.t; mutable touched : bool }
type seg = { base : int; prot : Mem.prot array; phys : page array }

type t = {
  mutable segs : seg list;
  mutable next_base : int;
  mutable saved : (seg list * int * (page * Bytes.t) list) option;
  tlb : int array;  (* 64 entries, direct-mapped by page number *)
  cache : int array;  (* 1024 entries, direct-mapped by 64-byte line *)
  mutable reads : int;
  mutable writes : int;
  mutable tlb_misses : int;
  mutable cache_misses : int;
  mutable touched_pages : int;
}

let create () =
  {
    segs = [];
    next_base = 16 * page_size;
    saved = None;
    tlb = Array.make 64 (-1);
    cache = Array.make 1024 (-1);
    reads = 0;
    writes = 0;
    tlb_misses = 0;
    cache_misses = 0;
    touched_pages = 0;
  }

let seg_len s = Array.length s.phys * page_size
let seg_of m addr = List.find_opt (fun s -> addr >= s.base && addr < s.base + seg_len s) m.segs

let distinct_pages s =
  Array.fold_left (fun acc p -> if List.memq p acc then acc else p :: acc) [] s.phys

let mapped_bytes m =
  List.fold_left (fun acc s -> acc + (List.length (distinct_pages s) * page_size)) 0 m.segs

let meshed_pages m =
  List.fold_left
    (fun acc s -> acc + Array.length s.phys - List.length (distinct_pages s))
    0 m.segs

let touch table addr shift =
  let tag = addr lsr shift in
  let slot = tag land (Array.length table - 1) in
  if table.(slot) = tag then false
  else begin
    table.(slot) <- tag;
    true
  end

(* One byte's access: charge its page and line, then check that it is
   mapped and that its page allows [access].  Returns its page and the
   offset within it. *)
let access m addr access =
  if touch m.tlb addr 12 then m.tlb_misses <- m.tlb_misses + 1;
  if touch m.cache addr 6 then m.cache_misses <- m.cache_misses + 1;
  match seg_of m addr with
  | None -> Fault.raise_fault (Fault.Unmapped { addr; access })
  | Some s ->
    let v = (addr - s.base) / page_size in
    (match (s.prot.(v), access) with
    | Mem.Read_write, _ | Mem.Read_only, Fault.Read -> ()
    | Mem.No_access, _ | Mem.Read_only, Fault.Write ->
      Fault.raise_fault (Fault.Protection { addr; access }));
    (s.phys.(v), (addr - s.base) mod page_size)

let mark_touched m p =
  if not p.touched then begin
    p.touched <- true;
    m.touched_pages <- m.touched_pages + 1
  end

(* Validate every byte first, then hand back the cells: multi-byte
   operations have no partial effect. *)
let cells m ~addr ~len kind = List.init len (fun i -> access m (addr + i) kind)

let load m ~addr ~len =
  let cs = cells m ~addr ~len Fault.Read in
  String.of_seq (List.to_seq (List.map (fun (p, o) -> Bytes.get p.bytes o) cs))

let store m ~addr s =
  let cs = cells m ~addr ~len:(String.length s) Fault.Write in
  List.iteri
    (fun i (p, o) ->
      mark_touched m p;
      Bytes.set p.bytes o s.[i])
    cs

let read8 m addr =
  m.reads <- m.reads + 1;
  Char.code (load m ~addr ~len:1).[0]

let write8 m addr v =
  m.writes <- m.writes + 1;
  store m ~addr (String.make 1 (Char.chr (v land 0xFF)))

let read64 m addr =
  m.reads <- m.reads + 1;
  Int64.to_int (String.get_int64_le (load m ~addr ~len:8) 0)

let write64 m addr v =
  m.writes <- m.writes + 1;
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  store m ~addr (Bytes.to_string b)

let read_bytes m ~addr ~len =
  let s = load m ~addr ~len in
  m.reads <- m.reads + len;
  s

let write_bytes m ~addr s =
  store m ~addr s;
  m.writes <- m.writes + String.length s

(* [n] words: the whole range validated bytewise first, like a bulk
   operation, and [n] accesses counted on success, like the word
   operations they stand for. *)
let read_words m ~addr ~n =
  let s = load m ~addr ~len:(8 * n) in
  m.reads <- m.reads + n;
  s

let write_words m ~addr values =
  let b = Bytes.create (8 * List.length values) in
  List.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.of_int v)) values;
  store m ~addr (Bytes.to_string b);
  m.writes <- m.writes + List.length values

(* The literal C store loop: no validation of the whole range first. *)
let write_cstring m ~addr s =
  String.iteri (fun i c -> write8 m (addr + i) (Char.code c)) s;
  write8 m (addr + String.length s) 0

let mmap m pages =
  let s =
    {
      base = m.next_base;
      prot = Array.make pages Mem.Read_write;
      phys = Array.init pages (fun _ -> { bytes = Bytes.make page_size '\000'; touched = false });
    }
  in
  m.segs <- s :: m.segs;
  m.next_base <- s.base + ((pages + 1) * page_size);
  s.base

let munmap m base =
  match List.partition (fun s -> s.base = base) m.segs with
  | [ _ ], rest -> m.segs <- rest
  | _ -> Fault.raise_fault (Fault.Unmap_unmapped { addr = base })

let protect m ~addr ~len prot =
  if len <= 0 then invalid_arg "Mem_model.protect";
  match seg_of m addr with
  | None -> Fault.raise_fault (Fault.Protect_unmapped { addr; len; fault_addr = addr })
  | Some s when addr + len > s.base + seg_len s ->
    Fault.raise_fault (Fault.Protect_unmapped { addr; len; fault_addr = s.base + seg_len s })
  | Some s ->
    for a = addr to addr + len - 1 do
      s.prot.((a - s.base) / page_size) <- prot
    done

let alias m ~src ~dst ~live =
  let bad () = invalid_arg "Mem_model.alias" in
  match seg_of m src with
  | _ when src mod page_size <> 0 || dst mod page_size <> 0 || src = dst -> bad ()
  | None -> bad ()
  | Some s ->
    if dst < s.base || dst >= s.base + seg_len s then bad ();
    let sv = (src - s.base) / page_size and dv = (dst - s.base) / page_size in
    let ps = s.phys.(sv) and pd = s.phys.(dv) in
    let sharing_pd = Array.fold_left (fun n p -> if p == pd then n + 1 else n) 0 s.phys in
    if ps == pd || sharing_pd <> 1 then bad ();
    if s.prot.(sv) <> Mem.Read_write || s.prot.(dv) <> Mem.Read_write then bad ();
    if List.exists (fun (off, len) -> off < 0 || len < 0 || off + len > page_size) live
    then bad ();
    if live <> [] then mark_touched m ps;
    List.iter (fun (off, len) -> Bytes.blit pd.bytes off ps.bytes off len) live;
    if pd.touched then begin
      pd.touched <- false;
      if ps.touched then m.touched_pages <- m.touched_pages - 1 else ps.touched <- true
    end;
    s.phys.(dv) <- ps

(* The saved state: segment tables copied, page records shared (their
   written flags are not rewound), page contents copied. *)
let copy_segs segs =
  List.map (fun s -> { s with prot = Array.copy s.prot; phys = Array.copy s.phys }) segs

let checkpoint m =
  let pages = List.concat_map distinct_pages m.segs in
  let contents = List.map (fun p -> (p, Bytes.copy p.bytes)) pages in
  m.saved <- Some (copy_segs m.segs, m.next_base, contents)

let discard_checkpoint m = m.saved <- None

let rewind m =
  match m.saved with
  | None -> invalid_arg "Mem_model.rewind"
  | Some (segs, next_base, contents) ->
    m.segs <- copy_segs segs;
    m.next_base <- next_base;
    List.iter (fun (p, b) -> Bytes.blit b 0 p.bytes 0 page_size) contents

(* The bytes of the segment at [base], read straight from the pages. *)
let contents m base =
  match List.find_opt (fun s -> s.base = base) m.segs with
  | None -> None
  | Some s ->
    Some (String.concat "" (Array.to_list (Array.map (fun p -> Bytes.to_string p.bytes) s.phys)))

let extents m = List.sort compare (List.map (fun s -> (s.base, seg_len s)) m.segs)
