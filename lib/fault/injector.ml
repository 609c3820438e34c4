module Allocator = Dh_alloc.Allocator
module Trace = Dh_alloc.Trace
module Mwc = Dh_rng.Mwc

type spec = {
  underflow_rate : float;
  underflow_bytes : int;
  underflow_min_size : int;
  dangling_rate : float;
  dangling_distance : int;
  double_free_rate : float;
  invalid_free_rate : float;
  seed : int;
}

let nothing =
  {
    underflow_rate = 0.;
    underflow_bytes = 0;
    underflow_min_size = 0;
    dangling_rate = 0.;
    dangling_distance = 0;
    double_free_rate = 0.;
    invalid_free_rate = 0.;
    seed = 1;
  }

let paper_dangling = { nothing with dangling_rate = 0.5; dangling_distance = 10 }

let paper_overflow =
  { nothing with underflow_rate = 0.01; underflow_bytes = 4; underflow_min_size = 32 }

type t = {
  spec : spec;
  rng : Mwc.t;
  (* trigger allocation-clock -> alloc_times of objects to free early *)
  schedule : (int, int list) Hashtbl.t;
  (* live objects, by address and by allocation time *)
  addr_of_alloc_time : (int, int) Hashtbl.t;
  alloc_time_of_addr : (int, int) Hashtbl.t;
  (* Addresses whose next application [free] must be swallowed because
     the injector already freed that object.  A count, because the
     underlying allocator may recycle the address for a new object whose
     own (legitimate) free must still go through. *)
  swallow : (int, int) Hashtbl.t;
  mutable clock : int;
}

let chance t p = p > 0. && Mwc.float01 t.rng < p

let build_schedule t log =
  List.iter
    (fun { Trace.alloc_time; free_time; _ } ->
      if chance t t.spec.dangling_rate then begin
        (* Free at [free_time - distance], but no earlier than the
           object's own allocation. *)
        let trigger = max alloc_time (free_time - t.spec.dangling_distance) in
        if trigger < free_time then begin
          let existing = Option.value ~default:[] (Hashtbl.find_opt t.schedule trigger) in
          Hashtbl.replace t.schedule trigger (alloc_time :: existing)
        end
      end)
    log

let fire_schedule t (alloc : Allocator.t) =
  match Hashtbl.find_opt t.schedule t.clock with
  | None -> ()
  | Some victims ->
    Hashtbl.remove t.schedule t.clock;
    List.iter
      (fun victim_time ->
        match Hashtbl.find_opt t.addr_of_alloc_time victim_time with
        | Some addr ->
          Hashtbl.remove t.addr_of_alloc_time victim_time;
          Hashtbl.remove t.alloc_time_of_addr addr;
          let pending = Option.value ~default:0 (Hashtbl.find_opt t.swallow addr) in
          Hashtbl.replace t.swallow addr (pending + 1);
          alloc.Allocator.free addr
        | None -> ())
      victims

let wrap spec ~log alloc =
  let t =
    {
      spec;
      rng = Mwc.create ~seed:spec.seed;
      schedule = Hashtbl.create 64;
      addr_of_alloc_time = Hashtbl.create 64;
      alloc_time_of_addr = Hashtbl.create 64;
      swallow = Hashtbl.create 64;
      clock = 0;
    }
  in
  build_schedule t log;
  let malloc sz =
    let actual =
      if
        sz >= spec.underflow_min_size
        && spec.underflow_bytes > 0
        && chance t spec.underflow_rate
      then sz - spec.underflow_bytes
      else sz
    in
    let addr = alloc.Allocator.malloc actual in
    if addr <> Allocator.null then begin
      t.clock <- t.clock + 1;
      Hashtbl.replace t.addr_of_alloc_time t.clock addr;
      Hashtbl.replace t.alloc_time_of_addr addr t.clock;
      fire_schedule t alloc
    end;
    addr
  in
  let forward_free addr =
    alloc.Allocator.free addr;
    if chance t spec.double_free_rate then alloc.Allocator.free addr;
    if chance t spec.invalid_free_rate then
      alloc.Allocator.free (addr + 1 + Mwc.below t.rng 7)
  in
  let free addr =
    match Hashtbl.find_opt t.swallow addr with
    | Some n ->
      (* The injected free already happened; swallow the real one
         ("ignores the subsequent (actual) call to free"). *)
      if n <= 1 then Hashtbl.remove t.swallow addr
      else Hashtbl.replace t.swallow addr (n - 1)
    | None -> (
      match Hashtbl.find_opt t.alloc_time_of_addr addr with
      | Some alloc_time ->
        Hashtbl.remove t.alloc_time_of_addr addr;
        Hashtbl.remove t.addr_of_alloc_time alloc_time;
        forward_free addr
      | None -> alloc.Allocator.free addr)
  in
  { alloc with Allocator.name = alloc.Allocator.name ^ "+inject"; malloc; free }
