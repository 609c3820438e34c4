module Mem = Dh_mem.Mem
module Fault = Dh_mem.Fault

type violation_kind = Tail_overflow | Freed_write

type detected_at = On_free | On_reuse | On_sweep

type violation = {
  kind : violation_kind;
  addr : int;
  size : int;
  offset : int;
  detected : detected_at;
}

module Imap = Map.Make (Int)

type live = { requested : int; slot : int }

type t = {
  alloc : Allocator.t;
  mutable live : live Imap.t;  (* base -> live object *)
  mutable freed : int Imap.t;  (* base -> slot size, canary-filled *)
  mutable violations : violation list;  (* newest first *)
}

(* The canary byte for an address: a cheap keyed hash, so the pattern is
   position-dependent (a memmove of canary bytes still trips the check)
   and not a guessable constant. *)
let seed = 0xD1E

let pattern addr =
  let h = (addr * 0x9E3779B1) lxor (seed * 0x85EBCA77) in
  (h lsr 7) land 0xff

let record t v = t.violations <- v :: t.violations

(* Scan [addr+lo, addr+hi) for the first byte that lost its canary: one
   bulk read, then a local comparison — the exact offending offset is
   still reported. *)
let first_corrupt t ~addr ~lo ~hi =
  if hi <= lo then None
  else begin
    let got = Mem.read_bytes t.alloc.Allocator.mem ~addr:(addr + lo) ~len:(hi - lo) in
    let rec go k =
      if k >= hi - lo then None
      else if Char.code got.[k] <> pattern (addr + lo + k) then Some (lo + k)
      else go (k + 1)
    in
    go 0
  end

let fill_pattern t ~addr ~lo ~hi =
  if hi > lo then
    Mem.write_bytes t.alloc.Allocator.mem ~addr:(addr + lo)
      (String.init (hi - lo) (fun k -> Char.chr (pattern (addr + lo + k))))

let check_tail t ~addr ~(obj : live) ~detected =
  match first_corrupt t ~addr ~lo:obj.requested ~hi:obj.slot with
  | None -> true
  | Some offset ->
    record t { kind = Tail_overflow; addr; size = obj.requested; offset; detected };
    false

let check_freed t ~addr ~slot ~detected =
  match first_corrupt t ~addr ~lo:0 ~hi:slot with
  | None -> true
  | Some offset ->
    record t { kind = Freed_write; addr; size = slot; offset; detected };
    false

(* Reserved slot size as the underlying allocator reports it; fall back
   to the requested size when the allocator cannot say (no tail then). *)
let slot_size t ~addr ~requested =
  match t.alloc.Allocator.find_object addr with
  | Some { Allocator.size; _ } -> size
  | None -> requested

let malloc t sz =
  let addr = t.alloc.Allocator.malloc sz in
  if addr = Allocator.null then addr
  else begin
    (* Fixed-slot allocators reuse slots at their base address: if this
       base is one we canary-filled on free, the fill must be intact. *)
    (match Imap.find_opt addr t.freed with
    | Some slot ->
      ignore (check_freed t ~addr ~slot ~detected:On_reuse);
      t.freed <- Imap.remove addr t.freed
    | None -> ());
    let slot = slot_size t ~addr ~requested:sz in
    if slot > sz then fill_pattern t ~addr ~lo:sz ~hi:slot;
    t.live <- Imap.add addr { requested = sz; slot } t.live;
    addr
  end

let free t addr =
  match Imap.find_opt addr t.live with
  | None ->
    (* Invalid or double free: not ours to judge — forward and let the
       underlying allocator's semantics apply. *)
    t.alloc.Allocator.free addr
  | Some obj ->
    ignore (check_tail t ~addr ~obj ~detected:On_free);
    t.live <- Imap.remove addr t.live;
    t.alloc.Allocator.free addr;
    (* Large objects are unmapped by their free; only slots that remain
       mapped (DieHard's small regions) can hold a freed canary. *)
    if Mem.is_mapped t.alloc.Allocator.mem addr then begin
      fill_pattern t ~addr ~lo:0 ~hi:obj.slot;
      t.freed <- Imap.add addr obj.slot t.freed
    end

let sweep t =
  Imap.iter (fun addr obj -> ignore (check_tail t ~addr ~obj ~detected:On_sweep)) t.live;
  Imap.iter
    (fun addr slot ->
      if Mem.is_mapped t.alloc.Allocator.mem addr then
        ignore (check_freed t ~addr ~slot ~detected:On_sweep))
    t.freed

let violations t = List.rev t.violations

let wrap alloc =
  let t = { alloc; live = Imap.empty; freed = Imap.empty; violations = [] } in
  ( t,
    { alloc with
      Allocator.name = alloc.Allocator.name ^ "+canary";
      malloc = malloc t;
      free = free t
    } )

(* --- diagnosis --- *)

type diagnosis = Buffer_overflow | Dangling_write | Wild_write | Wild_read | Unclear

let diagnose ?fault t =
  let has kind = List.exists (fun v -> v.kind = kind) t.violations in
  if has Tail_overflow then Buffer_overflow
  else if has Freed_write then Dangling_write
  else
    match fault with
    (* A guard-page hit is an overflow walking off a large object. *)
    | Some (Fault.Protection _) -> Buffer_overflow
    | Some (Fault.Unmapped { access = Fault.Write; _ }) -> Wild_write
    | Some (Fault.Unmapped { access = Fault.Read; _ }) -> Wild_read
    | Some (Fault.Unmap_unmapped _) -> Wild_write
    | Some (Fault.Protect_unmapped _) -> Wild_write
    | Some (Fault.Arith_trap _) | None -> Unclear

let diagnosis_to_string = function
  | Buffer_overflow -> "buffer overflow"
  | Dangling_write -> "dangling write"
  | Wild_write -> "wild write"
  | Wild_read -> "wild read"
  | Unclear -> "unclear"

let pp_violation ppf v =
  Format.fprintf ppf "%s at 0x%x+%d (%s, %s)"
    (match v.kind with
    | Tail_overflow -> "tail-overflow"
    | Freed_write -> "freed-write")
    v.addr v.offset
    (match v.kind with
    | Tail_overflow -> Printf.sprintf "%dB object" v.size
    | Freed_write -> Printf.sprintf "%dB slot" v.size)
    (match v.detected with
    | On_free -> "at free"
    | On_reuse -> "at reuse"
    | On_sweep -> "at sweep")
