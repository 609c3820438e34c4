type event =
  | Malloc of { alloc_time : int; size : int; addr : int }
  | Free of { at_time : int; alloc_time : int; addr : int }

type lifetime = { alloc_time : int; free_time : int; size : int }

type t = {
  mutable events : event list;  (* newest first *)
  mutable clock : int;
  live : (int, int * int) Hashtbl.t;  (* addr -> (alloc_time, size) *)
}

let wrap alloc =
  let t = { events = []; clock = 0; live = Hashtbl.create 64 } in
  let malloc sz =
    match alloc.Allocator.malloc sz with
    | None -> None
    | Some addr ->
      t.clock <- t.clock + 1;
      t.events <- Malloc { alloc_time = t.clock; size = sz; addr } :: t.events;
      Hashtbl.replace t.live addr (t.clock, sz);
      Some addr
  in
  let free addr =
    (match Hashtbl.find_opt t.live addr with
    | Some (alloc_time, _) ->
      Hashtbl.remove t.live addr;
      t.events <- Free { at_time = t.clock; alloc_time; addr } :: t.events
    | None -> ());
    alloc.Allocator.free addr
  in
  let wrapped =
    {
      alloc with
      Allocator.name = alloc.Allocator.name ^ "+trace";
      malloc;
      free;
    }
  in
  (t, wrapped)

let events t = List.rev t.events

let lifetimes t =
  let freed =
    List.filter_map
      (function
        | Free { at_time; alloc_time; _ } -> Some (alloc_time, at_time)
        | Malloc _ -> None)
      t.events
  in
  let size_of =
    let table = Hashtbl.create 64 in
    List.iter
      (function
        | Malloc { alloc_time; size; _ } -> Hashtbl.replace table alloc_time size
        | Free _ -> ())
      t.events;
    fun alloc_time -> Option.value ~default:0 (Hashtbl.find_opt table alloc_time)
  in
  freed
  |> List.map (fun (alloc_time, free_time) ->
         { alloc_time; free_time; size = size_of alloc_time })
  |> List.sort (fun a b -> compare a.alloc_time b.alloc_time)

let lifetimes_to_string lifetimes =
  let buf = Buffer.create (64 + (24 * List.length lifetimes)) in
  Buffer.add_string buf "# diehard lifetime log v1\n";
  List.iter
    (fun { alloc_time; free_time; size } ->
      Buffer.add_string buf (Printf.sprintf "%d %d %d\n" alloc_time free_time size))
    lifetimes;
  Buffer.contents buf
