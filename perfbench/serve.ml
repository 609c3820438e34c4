(* serve: the Squid-style cache server under the survival supervisor, in
   the traffic shape of the committed serve leg (bench/serve.ml): Zipf(1.1)
   keys, an overlong-URL attack every 997th request, a copy-on-write
   checkpoint every 512 requests with the rewind rung on, and telemetry
   on as shipped.  One client, closed loop, no think time: the next
   request starts when the previous one returns.

   Each pass is one server lifetime: the supervisor builds the heap, the
   service initializes, [warmup] requests warm it, then [requests]
   requests are measured.  The reference is the same request stream
   without the attacks, run stand-alone on freelist-lea: the attacks
   never reach the output (they only overflow a response title), so a
   DieHard run that survived them must print exactly what the reference
   prints — checksum and failed count included. *)

module Supervisor = Diehard.Supervisor
module Server = Dh_workload.Server
module Program = Dh_alloc.Program
module Process = Dh_mem.Process

let zipf = 1.1
let attack_every = 997

(* Eight checkpoint windows, so the measured phase starts on a window
   boundary and no rewind replays warm-up requests. *)
let warmup = 4096
let requests = 60_000
let served = warmup + requests

let policy =
  {
    Supervisor.default_policy with
    Supervisor.checkpoint_interval = 512;
    max_rewinds = 4096;
    fuel = 200_000_000;
  }

(* The server's requests are a pure function of their index; the seed
   picks which stretch of that index space a pass serves. *)
let base seed = seed * 1_000_003

(* The request loop as seen from outside the server. *)
type loop = {
  lat : Ledger.Hist.t option;
  calls : Ledger.calls;
  mutable handled : int;  (* handle calls, replays included *)
  mutable last : int;  (* highest request completed so far *)
  mutable prev : int;  (* ns: completion of that request *)
  mutable ready : int;  (* ns: warm-up done *)
  mutable ready_mallocs : int;
}

let loop ?lat () =
  {
    lat;
    calls = Ledger.calls ();
    handled = 0;
    last = -1;
    prev = 0;
    ready = 0;
    ready_mallocs = 0;
  }

(* A request's latency runs from the previous new request's completion to
   its own final completion, so a checkpoint arm lands on the first
   request of its window and a rewind plus its replay on the request that
   faulted.  Replayed requests complete again but are not new. *)
let program ~attacks loop seed =
  let svc =
    Server.service ~requests:served
      ~attack_every:(if attacks then attack_every else 0)
      ~zipf ()
  in
  let base = base seed in
  let init ctx =
    let h = Ledger.span Ledger.Server_init (fun () -> svc.Program.init ctx) in
    let handle k =
      loop.handled <- loop.handled + 1;
      Ledger.request := k;
      Ledger.span Ledger.Server_handle (fun () -> h.Program.handle (base + k));
      Ledger.request := -1;
      if k > loop.last then begin
        let t = Ledger.now_ns () in
        (match loop.lat with
        | Some lat when k >= warmup -> Ledger.Hist.add lat (t - loop.prev)
        | _ -> ());
        if k = warmup - 1 then begin
          loop.ready <- t;
          loop.ready_mallocs <- loop.calls.Ledger.mallocs
        end;
        loop.prev <- t;
        loop.last <- k
      end
    in
    { h with Program.handle }
  in
  Program.of_service ~name:"server" { svc with Program.init }

let pass ~seed ~lat =
  Dh_obs.Quantile.reset ();
  Dh_obs.Window.reset ();
  let dh = loop ~lat () in
  let heap = ref None in
  let t0 = Ledger.now_ns () in
  let incident =
    Ledger.span Ledger.Supervisor_run (fun () ->
        Supervisor.run ~policy
          ~config:(Diehard.Config.v ~heap_size:Server.heap_size ~obs:true ())
          ~seed_pool:(Dh_rng.Seed.create ~master:seed)
          ~wrap:(fun _ a ->
            heap := Some a;
            Ledger.wrap_alloc dh.calls a)
          (program ~attacks:true dh seed))
  in
  let fl = loop () in
  let reference =
    Ledger.span Ledger.Freelist_run (fun () ->
        Ledger.suspend (fun () ->
            Program.run ~fuel:policy.Supervisor.fuel
              (program ~attacks:false fl seed)
              (Ledger.freelist ())))
  in
  let output = Option.value incident.Supervisor.output ~default:"" in
  let recovery f =
    List.fold_left
      (fun acc (a : Supervisor.attempt_report) ->
        match a.Supervisor.recovery with Some r -> acc + f r | None -> acc)
      0 incident.Supervisor.attempts
  in
  let field ?(of_ = output) key = Option.value (Ledger.field ~key of_) ~default:(-1) in
  let survived =
    match incident.Supervisor.verdict with Supervisor.Survived _ -> true | Gave_up -> false
  in
  let errors =
    List.filter_map
      (fun (bad, msg) -> if bad then Some msg else None)
      [
        (not survived, "serve: the supervisor gave up");
        ( reference.Process.outcome <> Process.Exited 0,
          "serve: the freelist-lea reference did not exit 0" );
        ( output <> reference.Process.output,
          Printf.sprintf
            "serve: output differs from the freelist-lea reference (checksum %d vs \
             %d, failed %d vs %d)"
            (field "checksum")
            (field ~of_:reference.Process.output "checksum")
            (field "failed")
            (field ~of_:reference.Process.output "failed") );
      ]
  in
  let heap_counters =
    match !heap with
    | None -> []
    | Some a ->
      Ledger.heap_stats a.Dh_alloc.Allocator.stats
      @ Ledger.mem_ops a.Dh_alloc.Allocator.mem
      @ Ledger.mem_pages a.Dh_alloc.Allocator.mem
  in
  {
    Pass.setup_s = Ledger.seconds (dh.ready - t0);
    measured_s = Ledger.seconds (dh.prev - dh.ready);
    reference_s = Ledger.seconds (fl.prev - fl.ready);
    requests;
    mallocs = dh.calls.Ledger.mallocs - dh.ready_mallocs;
    attempted = requests;
    failed = (if survived then max 0 (field "failed") else requests);
    exact =
      [
        ("serve.checksum", field "checksum");
        ("serve.failed", field "failed");
        ("supervisor.attempts", List.length incident.Supervisor.attempts);
        ("supervisor.checkpoints", recovery (fun r -> r.Supervisor.checkpoints));
        ("supervisor.rewinds", recovery (fun r -> r.Supervisor.rewinds));
        ("mem.pages_restored", recovery (fun r -> r.Supervisor.pages_restored));
        ("mem.preimaged_pages", recovery (fun r -> r.Supervisor.preimaged_pages));
        ("supervisor.requests", served);
        ("supervisor.handle_calls", dh.handled);
        ("heap.mallocs", dh.calls.Ledger.mallocs);
        ("heap.frees", dh.calls.Ledger.frees);
      ]
      @ heap_counters;
    errors;
  }
