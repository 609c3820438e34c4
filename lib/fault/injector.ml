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

let wrap spec ~log alloc =
  let rng = Mwc.create ~seed:spec.seed in
  let chance p = p > 0. && Mwc.float01 rng < p in
  (* trigger allocation time -> allocation times of objects to free early *)
  let schedule = Hashtbl.create 64 in
  List.iter
    (fun { Trace.alloc_time; free_time; _ } ->
      if chance spec.dangling_rate then begin
        (* Free at [free_time - distance], but no earlier than the
           object's own allocation. *)
        let trigger = max alloc_time (free_time - spec.dangling_distance) in
        if trigger < free_time then begin
          let existing = Option.value ~default:[] (Hashtbl.find_opt schedule trigger) in
          Hashtbl.replace schedule trigger (alloc_time :: existing)
        end
      end)
    log;
  (* Addresses whose next application [free] must be swallowed because
     the injector already freed that object.  A count, because the
     underlying allocator may recycle the address for a new object whose
     own (legitimate) free must still go through. *)
  let swallow = Hashtbl.create 64 in
  let trace, traced = Trace.wrap alloc in
  (* Free early the objects scheduled for the clock's current time,
     through the traced allocator so the clock's live set forgets them. *)
  let fire_schedule now =
    let victims = Option.value ~default:[] (Hashtbl.find_opt schedule now) in
    Hashtbl.remove schedule now;
    List.iter
      (fun victim_time ->
        match Trace.live_object trace victim_time with
        | Some (addr, _) ->
          let pending = Option.value ~default:0 (Hashtbl.find_opt swallow addr) in
          Hashtbl.replace swallow addr (pending + 1);
          traced.Allocator.free addr
        | None -> ())
      victims
  in
  let malloc sz =
    let actual =
      if
        sz >= spec.underflow_min_size
        && spec.underflow_bytes > 0
        && chance spec.underflow_rate
      then sz - spec.underflow_bytes
      else sz
    in
    let addr = traced.Allocator.malloc actual in
    if addr <> Allocator.null then fire_schedule (Trace.clock trace);
    addr
  in
  let free addr =
    match Hashtbl.find_opt swallow addr with
    | Some n ->
      (* The injected free already happened; swallow the real one
         ("ignores the subsequent (actual) call to free"). *)
      if n <= 1 then Hashtbl.remove swallow addr
      else Hashtbl.replace swallow addr (n - 1)
    | None ->
      let live = Trace.alloc_time trace addr <> None in
      traced.Allocator.free addr;
      (* Injected double and invalid frees go straight to [alloc]. *)
      if live && chance spec.double_free_rate then alloc.Allocator.free addr;
      if live && chance spec.invalid_free_rate then
        alloc.Allocator.free (addr + 1 + Mwc.below rng 7)
  in
  { alloc with Allocator.name = alloc.Allocator.name ^ "+inject"; malloc; free }
