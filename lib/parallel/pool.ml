let default_jobs () = Domain.recommended_domain_count ()

(* Hard cap on live helper domains, process-wide: headroom under the
   OCaml runtime's 128-domain limit for the caller's own domains.  A
   fan-out that finds the cap reached (a nested one, say) runs with
   fewer helpers; the chunk cursor keeps its result the same. *)
let max_helpers = 120

let live = Atomic.make 0
let spawned = Atomic.make 0

let spawned_domains () = Atomic.get spawned

(* Reserve up to [want] helper slots under the cap; returns how many. *)
let rec reserve want =
  let cur = Atomic.get live in
  let got = max 0 (min want (max_helpers - cur)) in
  if got = 0 || Atomic.compare_and_set live cur (cur + got) then got
  else reserve want

(* Chunked self-scheduling: participants claim [chunk]-sized index
   ranges off a shared atomic cursor.  No work stealing, no channels —
   tasks in this codebase are coarse (whole program runs), so the only
   balancing needed is chunks small enough that a slow item does not
   strand a domain's whole static share.  The caller claims chunks too,
   then joins every helper it spawned. *)
let par_init ~jobs n f =
  let results = Array.make n None in
  let errors = Array.make n None in
  let next = Atomic.make 0 in
  let chunk = max 1 (n / (jobs * 8)) in
  let work () =
    let continue = ref true in
    while !continue do
      let start = Atomic.fetch_and_add next chunk in
      if start >= n then continue := false
      else
        for i = start to min n (start + chunk) - 1 do
          match f i with
          | v -> results.(i) <- Some v
          | exception e -> errors.(i) <- Some e
        done
    done
  in
  let helpers = reserve (min jobs n - 1) in
  ignore (Atomic.fetch_and_add spawned helpers);
  let domains = List.init helpers (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join domains;
  ignore (Atomic.fetch_and_add live (-helpers));
  Array.iter (function Some e -> raise e | None -> ()) errors;
  Array.map (function Some v -> v | None -> assert false) results

(* [jobs = 1] (or a single item) is plain [Array.init]: index order,
   stopping at the first exception, as if the pool did not exist. *)
let init ~jobs n f =
  if jobs < 1 then invalid_arg "Pool.init: jobs must be >= 1";
  if n < 0 then invalid_arg "Pool.init: negative length";
  if jobs = 1 || n <= 1 then Array.init n f else par_init ~jobs n f
