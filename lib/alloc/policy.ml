module Mem = Dh_mem.Mem

type kind = Raw | Fail_stop | Oblivious

type t = {
  kind : kind;
  alloc : Allocator.t;
  mutable manufactured : int;  (* indexes the manufactured-value cycle *)
  (* Fail_stop only: bytes of the heap the program has written, so reads
     of never-initialized memory can be flagged (CCured-style definite
     initialization). *)
  written : (int, unit) Hashtbl.t;
}

let make ?(kind = Raw) alloc =
  { kind; alloc; manufactured = 0; written = Hashtbl.create 64 }

(* Is [addr .. addr+width) inside a currently-allocated heap object? *)
let heap_access_ok t addr width =
  match t.alloc.Allocator.find_object addr with
  | Some { Allocator.base; size; allocated } ->
    allocated && addr + width <= base + size
  | None -> false

let abort_access addr width what =
  raise
    (Dh_mem.Process.Abort
       (Printf.sprintf "bounds check failed: %s of %d byte(s) at 0x%x" what width addr))

(* Failure-oblivious value manufacturing: cycle through a small sequence of
   plausible values, as in Rinard et al.'s implementation. *)
let manufacture t =
  let sequence = [| 0; 1; 2 |] in
  let v = sequence.(t.manufactured mod Array.length sequence) in
  t.manufactured <- t.manufactured + 1;
  v

let mark_written t addr width =
  for i = 0 to width - 1 do
    Hashtbl.replace t.written (addr + i) ()
  done

(* Fail_stop: a new object starts unwritten, whatever its slot held
   before.  [free] clears nothing: a collector's [free] is a no-op, and
   its object stays live. *)
let allocator t =
  if t.kind <> Fail_stop then t.alloc
  else
    let malloc sz =
      let addr = t.alloc.Allocator.malloc sz in
      if addr <> Allocator.null then
        Option.iter
          (fun { Allocator.base; size; _ } ->
            for a = base to base + size - 1 do Hashtbl.remove t.written a done)
          (t.alloc.Allocator.find_object addr);
      addr
    in
    { t.alloc with Allocator.malloc }

(* Fail_stop: the copied prefix keeps its written bytes. *)
let realloc t ptr sz =
  if t.kind <> Fail_stop then Allocator.realloc t.alloc ptr sz
  else begin
    let old_size =
      match t.alloc.Allocator.find_object ptr with
      | Some { Allocator.base; size; allocated } when allocated && base = ptr -> size
      | Some _ | None -> 0
    in
    let fresh = Allocator.realloc (allocator t) ptr sz in
    if fresh <> Allocator.null then
      for i = 0 to Int.min old_size sz - 1 do
        if Hashtbl.mem t.written (ptr + i) then mark_written t (fresh + i) 1
      done;
    fresh
  end

let all_written t addr width =
  let rec go i = i = width || (Hashtbl.mem t.written (addr + i) && go (i + 1)) in
  go 0

(* Oblivious: may this access reach memory?  Heap accesses must stay
   inside a live object, others inside a mapping. *)
let oblivious_ok t addr width =
  if t.alloc.Allocator.owns addr then heap_access_ok t addr width
  else Mem.is_mapped t.alloc.Allocator.mem addr

(* The checks of a checked kind ([load] and [store] below take [Raw]
   before them).  Each answers whether the access may go to memory:
   [Fail_stop] aborts rather than answer no, and [Oblivious] answers no
   when it will manufacture the value or drop the write. *)
let load_ok t addr width =
  if t.kind = Fail_stop then begin
    if t.alloc.Allocator.owns addr then
      if not (heap_access_ok t addr width) then abort_access addr width "load"
      else if not (all_written t addr width) then
        raise
          (Dh_mem.Process.Abort
             (Printf.sprintf "uninitialized read of %d byte(s) at 0x%x" width addr));
    true
  end
  else oblivious_ok t addr width

let store_ok t addr width =
  if t.kind = Fail_stop then begin
    if t.alloc.Allocator.owns addr then
      if heap_access_ok t addr width then mark_written t addr width
      else abort_access addr width "store";
    true
  end
  else oblivious_ok t addr width

(* The checked paths, out of line: a [Raw] access below inlines to one
   dispatch on the kind and its [Mem] access. *)
let[@inline never] checked_load t addr =
  if load_ok t addr 8 then Mem.read64 t.alloc.Allocator.mem addr else manufacture t

let[@inline never] checked_load8 t addr =
  if load_ok t addr 1 then Mem.read8 t.alloc.Allocator.mem addr else manufacture t

let[@inline never] checked_store t addr v =
  if store_ok t addr 8 then Mem.write64 t.alloc.Allocator.mem addr v

let[@inline never] checked_store8 t addr v =
  if store_ok t addr 1 then Mem.write8 t.alloc.Allocator.mem addr v

let[@inline] load t addr =
  match t.kind with Raw -> Mem.read64 t.alloc.Allocator.mem addr | _ -> checked_load t addr

let[@inline] load8 t addr =
  match t.kind with Raw -> Mem.read8 t.alloc.Allocator.mem addr | _ -> checked_load8 t addr

let[@inline] store t addr v =
  match t.kind with Raw -> Mem.write64 t.alloc.Allocator.mem addr v | _ -> checked_store t addr v

let[@inline] store8 t addr v =
  match t.kind with Raw -> Mem.write8 t.alloc.Allocator.mem addr v | _ -> checked_store8 t addr v
