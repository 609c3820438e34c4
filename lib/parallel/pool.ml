type t = { jobs : int }

let default_jobs () = Domain.recommended_domain_count ()

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  { jobs }

let jobs t = t.jobs

(* --- the shared worker-domain pool ---

   Workers are spawned once, process-wide, and parked on a per-worker
   condition variable between jobs.  A fan-out borrows up to [jobs - 1]
   idle workers, hands each the same chunk-claiming closure, runs the
   closure on the calling domain too, and waits for the borrowed workers
   to park again.  Nothing is ever joined: a parked worker costs one
   blocked systhread, and spawning — the dominant per-call cost of the
   old pool — happens at most [max_workers] times per process.

   Borrowing is first-fit under a global lock taken only at submit and
   release, never inside the work loop.  If every worker is busy (e.g. a
   nested fan-out), the caller simply runs with fewer helpers — the
   chunk cursor keeps the results identical no matter how many domains
   participate, so degraded acquisition affects wall-clock only. *)

type worker = {
  lock : Mutex.t;
  cond : Condition.t;  (* signalled in both directions: job posted / job done *)
  mutable job : (unit -> unit) option;
  mutable parked : bool;  (* true iff idle and owned by the free list *)
  mutable retire : bool;  (* set by [quiesce]: exit instead of re-parking *)
  mutable handle : unit Domain.t option;  (* joined only by [quiesce] *)
}

(* Hard cap on pooled worker domains: headroom under the OCaml runtime's
   128-domain limit for the caller's own domains. *)
let max_workers = 120

let pool_lock = Mutex.create ()
let workers : worker list ref = ref []  (* every worker ever spawned *)
let spawned = ref 0

let worker_loop w =
  let rec next () =
    Mutex.lock w.lock;
    let rec await () =
      match w.job with
      | Some job -> Some job
      | None ->
        if w.retire then None
        else begin
          Condition.wait w.cond w.lock;
          await ()
        end
    in
    match await () with
    | None ->
      (* Retired while parked: exit the domain. *)
      Mutex.unlock w.lock
    | Some job ->
      Mutex.unlock w.lock;
      (* Jobs capture their own exceptions (per-item slots in
         [run_batch]); a stray raise must not kill a pooled worker, so
         swallow it here — the batch's unfilled result slots surface the
         failure. *)
      (try job () with _ -> ());
      Mutex.lock w.lock;
      w.job <- None;
      w.parked <- true;
      Condition.signal w.cond;
      Mutex.unlock w.lock;
      next ()
  in
  next ()

(* Borrow up to [want] idle workers, spawning fresh ones only when no
   parked worker is available and the cap allows.  Returns the borrowed
   workers (possibly fewer than asked, possibly none). *)
let acquire want =
  if want <= 0 then []
  else
    Mutex.protect pool_lock (fun () ->
        let borrowed = ref [] in
        let n = ref 0 in
        List.iter
          (fun w ->
            if !n < want && Mutex.protect w.lock (fun () ->
                 if w.parked then (w.parked <- false; true) else false)
            then begin
              borrowed := w :: !borrowed;
              incr n
            end)
          !workers;
        while !n < want && !spawned < max_workers do
          let w =
            {
              lock = Mutex.create ();
              cond = Condition.create ();
              job = None;
              parked = false;  (* born borrowed *)
              retire = false;
              handle = None;
            }
          in
          w.handle <- Some (Domain.spawn (fun () -> worker_loop w));
          incr spawned;
          workers := w :: !workers;
          borrowed := w :: !borrowed;
          incr n
        done;
        !borrowed)

let submit w job =
  Mutex.lock w.lock;
  w.job <- Some job;
  Condition.signal w.cond;
  Mutex.unlock w.lock

(* Wait for a borrowed worker to finish its job and park; the worker
   stays in the shared pool for the next fan-out. *)
let await_parked w =
  Mutex.lock w.lock;
  while not w.parked do
    Condition.wait w.cond w.lock
  done;
  Mutex.unlock w.lock

let spawned_domains () = Mutex.protect pool_lock (fun () -> !spawned)

(* Retire and join every pooled worker.  Parked domains are not free:
   each one is a full participant in the runtime's stop-the-world
   sections, so every minor collection of purely sequential code pays a
   cross-domain barrier for workers that are doing nothing — on a small
   machine that tax is a large constant factor.  Call this at the
   boundary from a parallel phase to a long sequential one (the bench
   harness does, between sweep points and stages); the next fan-out
   simply respawns.  Workers still mid-job finish first: retirement
   takes effect when they park. *)
let quiesce () =
  let ws =
    Mutex.protect pool_lock (fun () ->
        let ws = !workers in
        workers := [];
        spawned := 0;
        ws)
  in
  List.iter
    (fun w ->
      Mutex.protect w.lock (fun () ->
          w.retire <- true;
          Condition.signal w.cond))
    ws;
  List.iter (fun w -> Option.iter Domain.join w.handle) ws

(* Run [width] copies of [work] concurrently: [width - 1] on borrowed
   pool workers plus one on the calling domain, returning once every
   copy has finished.  [work] must be safe to run on fewer domains than
   asked (self-scheduling), because acquisition may come up short. *)
let run_batch ~width work =
  let helpers = acquire (width - 1) in
  List.iter (fun w -> submit w work) helpers;
  work ();
  List.iter await_parked helpers

(* Chunked self-scheduling: participants claim [chunk]-sized index
   ranges off a shared atomic cursor.  No work stealing, no channels —
   tasks in this codebase are coarse (whole program runs), so the only
   balancing needed is chunks small enough that a slow item does not
   strand a domain's whole static share. *)
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
        Dh_obs.Tracing.span ~arg:(string_of_int start) "pool.chunk" (fun () ->
            for i = start to min n (start + chunk) - 1 do
              match f i with
              | v -> results.(i) <- Some v
              | exception e -> errors.(i) <- Some e
            done)
    done
  in
  run_batch ~width:(min jobs n) work;
  Array.iter (function Some e -> raise e | None -> ()) errors;
  Array.map (function Some v -> v | None -> assert false) results

(* [jobs = 1] (or a single item) is plain [Array.init]: index order,
   stopping at the first exception, as if the pool did not exist. *)
let init ~pool n f =
  if n < 0 then invalid_arg "Pool.init: negative length";
  if pool.jobs = 1 || n <= 1 then Array.init n f else par_init ~jobs:pool.jobs n f
