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
  events : Dh_obs.Tracing.event list;
}

let run_program_once ?(config = Config.default) ?(input = "") ?fuel program =
  let mem = Dh_mem.Mem.create () in
  let heap = Heap.create ~config mem in
  Program.run ?fuel ~input program (Heap.allocator heap)

(* Per-replica voting state. *)
type live = {
  rid : int;
  chunks : string array;
  crashed : bool;  (* did not terminate normally *)
}

let run ?(config = Config.default) ?(replicas = 3)
    ?(seed_pool = Dh_rng.Seed.create ~master:config.Config.seed) ?(input = "")
    ?fuel program =
  if replicas < 1 || replicas = 2 then
    invalid_arg
      "Replicated.run: need one replica or at least three — with exactly two, \
       disagreeing replicas split 1-1 and the voter has no majority to commit \
       (the paper's quorum argument, \xc2\xa76); pass --replicas 1 or --replicas 3 \
       to `diehard replicate`";
  (* Spawn a replica on its own address space: run it to completion and
     precompute its barrier chunks (see the .mli for why this is
     equivalent to the paper's concurrent processes). *)
  let spawn rid seed =
    let mem = Dh_mem.Mem.create ~obs:config.Config.obs () in
    let obs = Dh_mem.Mem.recorder mem in
    let live, result =
      Dh_obs.Recorder.span ~arg:rid obs "replica.run" (fun () ->
          let heap = Heap.create ~config:{ config with Config.seed; replicated = true } mem in
          let result = Program.run ?fuel ~input program (Heap.allocator heap) in
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
    (live, result, Dh_obs.Recorder.events obs)
  in
  (* Fan the replicas out across domains.  Replica i's seed is frozen by
     the split before any replica runs, and the pool returns results in
     replica-id order, so every vote below is identical for any
     [config.jobs]. *)
  let seeds = Dh_rng.Seed.split ~n:replicas seed_pool in
  let spawned =
    Dh_parallel.Pool.init ~jobs:config.Config.jobs replicas (fun rid ->
        spawn rid seeds.(rid))
  in
  (* The voter's instants belong to no replica's space: the run owns
     their ring. *)
  let voter = Dh_obs.Recorder.create ~on:config.Config.obs in
  let eliminated : (int, cause) Hashtbl.t = Hashtbl.create 8 in
  let live = ref (Array.to_list (Array.map (fun (l, _, _) -> l) spawned)) in
  let committed = Buffer.create 1024 in
  let barriers = ref 0 in
  let finished_ok = ref false in
  let stop = ref None in
  while !stop = None && !live <> [] do
    let j = !barriers in
    (* Replicas with no chunk at this barrier either terminated normally
       (all output already committed) or died mid-chunk. *)
    let participants, done_now =
      List.partition (fun l -> j < Array.length l.chunks) !live
    in
    live := participants;
    List.iter
      (fun l ->
        if l.crashed then Hashtbl.replace eliminated l.rid Died else finished_ok := true)
      done_now;
    match participants with
    | [] -> ()  (* loop exits: everyone finished or died *)
    | _ :: _ -> (
      incr barriers;
      let ballots =
        List.map (fun l -> { Voter.replica = l.rid; chunk = l.chunks.(j) }) participants
      in
      match Voter.vote ballots with
      | Voter.Unanimous chunk ->
        Dh_obs.Recorder.instant ~arg:j voter "voter.unanimous";
        Buffer.add_string committed chunk
      | Voter.Majority { chunk; losers } ->
        Dh_obs.Recorder.instant ~arg:j voter "voter.majority";
        Buffer.add_string committed chunk;
        List.iter (fun rid -> Hashtbl.replace eliminated rid (Voted_out j)) losers;
        live := List.filter (fun l -> not (List.mem l.rid losers)) participants
      | Voter.No_quorum ->
        Dh_obs.Recorder.instant ~arg:j voter "voter.no_quorum";
        (* All live replicas differ pairwise.  With >= 3 of them this is
           the uninitialized-read signature; with fewer the voter simply
           cannot decide. *)
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
      Array.to_list
        (Array.mapi
           (fun id (_, result, _) ->
             {
               id;
               seed = seeds.(id);
               outcome = result.Process.outcome;
               eliminated = Hashtbl.find_opt eliminated id;
             })
           spawned);
    events =
      Dh_obs.Tracing.merge
        (Dh_obs.Recorder.events voter :: Array.to_list (Array.map (fun (_, _, e) -> e) spawned));
  }
