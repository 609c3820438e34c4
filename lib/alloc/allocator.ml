type object_info = { base : int; size : int; allocated : bool }

type t = {
  name : string;
  mem : Dh_mem.Mem.t;
  malloc : int -> int;
  free : int -> unit;
  find_object : int -> object_info option;
  owns : int -> bool;
  register_roots : ((unit -> int list) -> unit) option;
  stats : Stats.t;
}

let null = 0

let malloc_exn t sz =
  let addr = t.malloc sz in
  if addr = null then failwith (Printf.sprintf "%s: out of memory allocating %d bytes" t.name sz)
  else addr

let realloc t ptr sz =
  if ptr = null then t.malloc sz
  else if sz <= 0 then begin
    t.free ptr;
    null
  end
  else begin
    let old_usable =
      match t.find_object ptr with
      | Some { base; size; allocated } when allocated && base = ptr -> Some size
      | Some _ | None -> None
    in
    let fresh = t.malloc sz in
    if fresh = null then null (* C: the old object is untouched on failure *)
    else begin
      (match old_usable with
      | Some old_size ->
        let n = Int.min old_size sz in
        let bytes = Dh_mem.Mem.read_bytes t.mem ~addr:ptr ~len:n in
        Dh_mem.Mem.write_bytes t.mem ~addr:fresh bytes
      | None -> ());
      t.free ptr;
      fresh
    end
  end
