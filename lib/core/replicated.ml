module Process = Dh_mem.Process
module Program = Dh_alloc.Program

type cause = Voted_out of int | Died

type replica_report = {
  id : int;
  seed : int;
  outcome : Process.outcome;
  eliminated : cause option;
}

type verdict = Agreed | Uninit_read_detected | No_quorum | All_died

type report = {
  verdict : verdict;
  output : string;
  barriers : int;
  replicas : replica_report list;
}

let run_replica ~config ~seed ~input ~fuel program =
  let mem = Dh_mem.Mem.create () in
  let config = { config with Config.seed; replicated = true } in
  let heap = Heap.create ~config mem in
  Program.run ?fuel ~input program (Heap.allocator heap)

let run_program_once ?(config = Config.default) ?(seed = config.Config.seed)
    ?(input = "") ?fuel program =
  let mem = Dh_mem.Mem.create () in
  let heap = Heap.create ~config:{ config with Config.seed } mem in
  Program.run ?fuel ~input program (Heap.allocator heap)

(* Per-replica voting state. *)
type live = {
  rid : int;
  chunks : string array;
  crashed : bool;  (* did not terminate normally *)
}

let run ?(config = Config.default) ?(replicas = 3)
    ?(seed_pool = Dh_rng.Seed.create ~master:config.Config.seed) ?(input = "")
    ?fuel ?(replace_failed = 0) program =
  if replicas < 1 || replicas = 2 then
    invalid_arg
      "Replicated.run: need one replica or at least three — with exactly two, \
       disagreeing replicas split 1-1 and the voter has no majority to commit \
       (the paper's quorum argument, \xc2\xa76); pass --replicas 1 or --replicas 3 \
       to `diehard replicate`";
  (* Honor the config's obs knob for the duration of this run (telemetry
     is write-only, so the run's result is unaffected). *)
  Dh_obs.Control.with_enabled (config.Config.obs || Dh_obs.Control.enabled ()) @@ fun () ->
  (* Spawn a replica: run it to completion and precompute its barrier
     chunks (see the .mli for why this is equivalent to the paper's
     concurrent processes). *)
  let spawn rid seed =
    Dh_obs.Tracing.span ~arg:(string_of_int rid) "replica.run" (fun () ->
        let result = run_replica ~config ~seed ~input ~fuel program in
        let crashed =
          match result.Process.outcome with
          | Process.Exited _ -> false
          | Process.Crashed _ | Process.Aborted _ | Process.Timeout -> true
        in
        ( {
            rid;
            chunks =
              Array.of_list (Voter.chunks_of_output ~crashed result.Process.output);
            crashed;
          },
          result ))
  in
  let roster : (int * int * Process.outcome) list ref = ref [] in
  let eliminated : (int, cause) Hashtbl.t = Hashtbl.create 8 in
  (* Fan the initial replicas out across domains.  Replica i's seed is
     frozen by the split before any replica runs, and the pool returns
     results in replica-id order, so the roster and every vote below are
     identical for any [config.jobs]. *)
  let seeds = Dh_rng.Seed.split ~n:replicas seed_pool in
  let pool = Dh_parallel.Pool.create ~jobs:config.Config.jobs () in
  let spawned = Dh_parallel.Pool.init ~pool replicas (fun rid -> spawn rid seeds.(rid)) in
  Array.iteri
    (fun rid (_, result) -> roster := (rid, seeds.(rid), result.Process.outcome) :: !roster)
    spawned;
  (* Replacements are spawned one at a time from inside the (sequential)
     barrier protocol; their seeds continue the pool's stream after the
     split block, exactly as the pre-parallel code drew them. *)
  let next_id = ref replicas in
  let new_replica () =
    let rid = !next_id in
    incr next_id;
    let seed = Dh_rng.Seed.fresh seed_pool in
    let live, result = spawn rid seed in
    roster := (rid, seed, result.Process.outcome) :: !roster;
    live
  in
  let live = ref (Array.to_list (Array.map fst spawned)) in
  let committed = Buffer.create 1024 in
  let committed_chunks = ref [] in  (* newest first *)
  let replacements_left = ref replace_failed in
  let barriers = ref 0 in
  let finished_ok = ref false in
  let stop = ref None in
  let barrier = ref 0 in
  (* §5.2: on a failure, try to bring in a replacement with a fresh seed.
     It joins only if it reproduces everything already committed (our
     deterministic re-execution stands in for copying a good replica's
     state). *)
  let try_replace () =
    if !replacements_left > 0 then begin
      decr replacements_left;
      let replacement = new_replica () in
      let prefix = List.rev !committed_chunks in
      let agrees =
        Array.length replacement.chunks >= List.length prefix
        && List.for_all2
             (fun a b -> String.equal a b)
             prefix
             (Array.to_list (Array.sub replacement.chunks 0 (List.length prefix)))
      in
      if agrees then live := !live @ [ replacement ]
      else Hashtbl.replace eliminated replacement.rid Died
    end
  in
  while !stop = None && !live <> [] do
    let j = !barrier in
    (* Replicas with no chunk at this barrier either terminated normally
       (all output already committed) or died mid-chunk. *)
    (* Settle the live set for this barrier: replicas without a chunk at
       index [j] either finished or died; deaths may pull in
       replacements, which may themselves already be finished — iterate
       until no one else drops out. *)
    let rec settle () =
      let participants, done_now =
        List.partition (fun l -> j < Array.length l.chunks) !live
      in
      live := participants;
      if done_now <> [] then begin
        List.iter
          (fun l ->
            if l.crashed then begin
              Hashtbl.replace eliminated l.rid Died;
              try_replace ()
            end
            else finished_ok := true)
          done_now;
        settle ()
      end
    in
    settle ();
    match !live with
    | [] -> ()  (* loop exits: everyone finished or died *)
    | _ :: _ -> (
      incr barriers;
      let ballots =
        List.map (fun l -> { Voter.replica = l.rid; chunk = l.chunks.(j) }) !live
      in
      match Voter.vote ballots with
      | Voter.Unanimous chunk ->
        Dh_obs.Tracing.instant ~arg:(string_of_int j) "voter.unanimous";
        Buffer.add_string committed chunk;
        committed_chunks := chunk :: !committed_chunks;
        incr barrier
      | Voter.Majority { chunk; losers } ->
        Dh_obs.Tracing.instant ~arg:(string_of_int j) "voter.majority";
        Buffer.add_string committed chunk;
        committed_chunks := chunk :: !committed_chunks;
        List.iter
          (fun rid ->
            Hashtbl.replace eliminated rid (Voted_out j);
            try_replace ())
          losers;
        live := List.filter (fun l -> not (List.mem l.rid losers)) !live;
        incr barrier
      | Voter.No_quorum ->
        Dh_obs.Tracing.instant ~arg:(string_of_int j) "voter.no_quorum";
        (* All live replicas differ pairwise.  With >= 3 of them this is
           the uninitialized-read signature; with fewer the voter simply
           cannot decide.  Replacement cannot help: fresh replicas would
           disagree all over again. *)
        let participants = !live in
        List.iter (fun l -> Hashtbl.replace eliminated l.rid (Voted_out j)) participants;
        live := [];
        stop :=
          Some
            (if List.length participants >= 3 then Uninit_read_detected else No_quorum))
  done;
  let verdict =
    match !stop with
    | Some v -> v
    | None -> if !finished_ok then Agreed else All_died
  in
  {
    verdict;
    output = Buffer.contents committed;
    barriers = !barriers;
    replicas =
      List.rev_map
        (fun (id, seed, outcome) ->
          { id; seed; outcome; eliminated = Hashtbl.find_opt eliminated id })
        !roster;
  }
