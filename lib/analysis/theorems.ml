let check_replicas k =
  if k < 1 then invalid_arg "Theorems: replicas must be >= 1";
  if k = 2 then invalid_arg "Theorems: k = 2 is excluded (voter cannot break ties)"

let overflow_mask_probability ~free_fraction ~objects ~replicas =
  check_replicas replicas;
  if objects < 0 then invalid_arg "Theorems: objects must be >= 0";
  if free_fraction < 0. || free_fraction > 1. then
    invalid_arg "Theorems: free_fraction out of [0,1]";
  let miss_one = Float.pow free_fraction (float_of_int objects) in
  1. -. Float.pow (1. -. miss_one) (float_of_int replicas)

let dangling_mask_probability ~allocations ~free_slots ~replicas =
  check_replicas replicas;
  if allocations < 0 then invalid_arg "Theorems: allocations must be >= 0";
  if free_slots <= 0 then invalid_arg "Theorems: free_slots must be positive";
  let ratio = float_of_int allocations /. float_of_int free_slots in
  let ratio = Float.min 1. ratio in
  1. -. Float.pow ratio (float_of_int replicas)

let uninit_detect_probability ~bits ~replicas =
  if bits < 0 then invalid_arg "Theorems: bits must be >= 0";
  if replicas < 1 then invalid_arg "Theorems: replicas must be >= 1";
  (* P = prod_{i=0}^{k-1} (2^B - i) / 2^B, in log space. *)
  let values = Float.pow 2. (float_of_int bits) in
  if float_of_int replicas > values then 0.
  else begin
    let log_p = ref 0. in
    for i = 0 to replicas - 1 do
      log_p := !log_p +. log ((values -. float_of_int i) /. values)
    done;
    exp !log_p
  end

let multiple_errors_mask_probability ps =
  List.iter
    (fun p ->
      if p < 0. || p > 1. then
        invalid_arg "Theorems: probabilities must lie in [0,1]")
    ps;
  List.fold_left ( *. ) 1. ps

let expected_probes ~multiplier =
  if not (multiplier > 1.) then invalid_arg "Theorems: multiplier must be > 1";
  1. /. (1. -. (1. /. multiplier))

let figure_4b ~heap_size ~multiplier ~object_sizes ~allocations =
  let region = heap_size / Dh_alloc.Size_class.count in
  List.map
    (fun size ->
      (* Q = F/S: free slots in this class's region.  With the region at
         most 1/M full, at least (1 - 1/M) of its slots are free; the
         paper's default-configuration curve uses the capacity available
         for allocation, region/M slots of head-room against which the A
         intervening allocations land. *)
      let free_slots = region / multiplier / size in
      ( size,
        List.map
          (fun a -> (a, dangling_mask_probability ~allocations:a ~free_slots ~replicas:1))
          allocations ))
    object_sizes
