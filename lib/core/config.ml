module Size_class = Dh_alloc.Size_class

type t = {
  multiplier : float;
  heap_size : int;
  replicated : bool;
  seed : int;
  jobs : int;
  obs : bool;
  mesh : bool;
  mesh_threshold : int;
}

let validate t =
  if not (t.multiplier > 1.) then invalid_arg "Config: multiplier must be > 1";
  if t.jobs < 1 then invalid_arg "Config: jobs must be >= 1";
  if t.mesh_threshold <= 0 then invalid_arg "Config: mesh threshold must be positive";
  let region = t.heap_size / Size_class.count in
  if float_of_int region < float_of_int Size_class.max_size *. t.multiplier then
    invalid_arg "Config: heap too small for the largest size class";
  t

let default =
  validate
    {
      multiplier = 2.;
      heap_size = 24 lsl 20;
      replicated = false;
      seed = 1;
      jobs = 1;
      obs = false;
      mesh = false;
      mesh_threshold = 256 lsl 10;
    }

let v ?(multiplier = default.multiplier) ?(heap_size = default.heap_size)
    ?(replicated = default.replicated) ?(seed = default.seed)
    ?(jobs = default.jobs) ?(obs = default.obs) ?(mesh = default.mesh)
    ?(mesh_threshold = default.mesh_threshold) () =
  validate { multiplier; heap_size; replicated; seed; jobs; obs; mesh; mesh_threshold }

let region_size t =
  let raw = t.heap_size / Size_class.count in
  raw / Dh_mem.Mem.page_size * Dh_mem.Mem.page_size

let objects_in_region t ~class_ = region_size t / Size_class.size class_

(* The occupancy ceiling of §4.2. *)
let threshold t ~class_ =
  int_of_float (float_of_int (objects_in_region t ~class_) /. t.multiplier)
