type lifetime = { alloc_time : int; free_time : int; size : int }

type t = {
  mutable clock : int;
  (* the live objects both ways *)
  time_of_addr : (int, int) Hashtbl.t;  (* addr -> alloc_time *)
  live : (int, int * int) Hashtbl.t;  (* alloc_time -> (addr, requested size) *)
  mutable freed : lifetime list;  (* newest first *)
}

let clock t = t.clock
let alloc_time t addr = Hashtbl.find_opt t.time_of_addr addr
let live_object t alloc_time = Hashtbl.find_opt t.live alloc_time

let wrap alloc =
  let t = { clock = 0; time_of_addr = Hashtbl.create 64; live = Hashtbl.create 64; freed = [] } in
  let malloc sz =
    let addr = alloc.Allocator.malloc sz in
    if addr <> Allocator.null then begin
      t.clock <- t.clock + 1;
      Hashtbl.replace t.time_of_addr addr t.clock;
      Hashtbl.replace t.live t.clock (addr, sz)
    end;
    addr
  in
  let free addr =
    (match Hashtbl.find_opt t.time_of_addr addr with
    | Some alloc_time ->
      let _, size = Hashtbl.find t.live alloc_time in
      Hashtbl.remove t.time_of_addr addr;
      Hashtbl.remove t.live alloc_time;
      t.freed <- { alloc_time; free_time = t.clock; size } :: t.freed
    | None -> ());
    alloc.Allocator.free addr
  in
  (t, { alloc with Allocator.name = alloc.Allocator.name ^ "+trace"; malloc; free })

let lifetimes t = List.sort (fun a b -> compare a.alloc_time b.alloc_time) t.freed

let lifetimes_to_string lifetimes =
  let buf = Buffer.create (64 + (24 * List.length lifetimes)) in
  Buffer.add_string buf "# diehard lifetime log v1\n";
  List.iter
    (fun { alloc_time; free_time; size } ->
      Buffer.add_string buf (Printf.sprintf "%d %d %d\n" alloc_time free_time size))
    lifetimes;
  Buffer.contents buf
