(* Cross-cutting property tests: voter laws, statement-level
   pretty-print/reparse round-trips, theorem monotonicity sweeps, and the
   differential tests that run one workload on several allocators. *)

module Mem = Dh_mem.Mem
module Allocator = Dh_alloc.Allocator
open Diehard

(* --- voter laws --- *)

let gen_ballots =
  (* up to 7 replicas voting over a small alphabet of chunks so that
     agreements actually happen *)
  QCheck.Gen.(
    list_size (int_range 1 7)
      (map (fun i -> Printf.sprintf "chunk%d" i) (int_bound 3)))

let ballots_of chunks = List.mapi (fun i chunk -> { Voter.replica = i; chunk }) chunks

let prop_voter_unanimous_iff_all_equal =
  QCheck.Test.make ~name:"voter: Unanimous iff all ballots equal (or single)" ~count:500
    (QCheck.make gen_ballots)
    (fun chunks ->
      let all_equal =
        match chunks with [] -> true | c :: rest -> List.for_all (String.equal c) rest
      in
      match Voter.vote (ballots_of chunks) with
      | Voter.Unanimous _ -> all_equal || List.length chunks = 1
      | Voter.Majority _ | Voter.No_quorum -> not all_equal)

let prop_voter_majority_has_two_supporters =
  QCheck.Test.make ~name:"voter: a Majority winner has >= 2 supporters" ~count:500
    (QCheck.make gen_ballots)
    (fun chunks ->
      match Voter.vote (ballots_of chunks) with
      | Voter.Majority { chunk; losers } ->
        let supporters = List.length (List.filter (String.equal chunk) chunks) in
        supporters >= 2
        && supporters + List.length losers = List.length chunks
        && List.for_all
             (fun rid -> not (String.equal (List.nth chunks rid) chunk))
             losers
      | Voter.Unanimous _ | Voter.No_quorum -> true)

let prop_voter_no_quorum_means_no_pair =
  QCheck.Test.make ~name:"voter: No_quorum iff no chunk has two supporters" ~count:500
    (QCheck.make gen_ballots)
    (fun chunks ->
      let has_pair =
        List.exists
          (fun c -> List.length (List.filter (String.equal c) chunks) >= 2)
          chunks
      in
      let all_equal =
        match chunks with [] -> true | c :: rest -> List.for_all (String.equal c) rest
      in
      match Voter.vote (ballots_of chunks) with
      | Voter.No_quorum -> (not has_pair) && List.length chunks > 1
      | Voter.Majority _ -> has_pair && not all_equal
      | Voter.Unanimous _ -> true)

(* --- statement-level pretty/reparse round-trip --- *)

let gen_small_expr =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Dh_lang.Ast.Int i) (int_bound 100);
        return (Dh_lang.Ast.Var "x");
        map
          (fun i -> Dh_lang.Ast.Binop (Dh_lang.Ast.Add, Dh_lang.Ast.Var "x", Dh_lang.Ast.Int i))
          (int_bound 9);
        map
          (fun i -> Dh_lang.Ast.Index (Dh_lang.Ast.Var "x", Dh_lang.Ast.Int i))
          (int_bound 3);
        map (fun s -> Dh_lang.Ast.Str s) (oneofl [ "a"; "b\nc"; "q\"q" ]);
      ])

let gen_stmt =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              map (fun e -> Dh_lang.Ast.Decl ("y", e)) gen_small_expr;
              map (fun e -> Dh_lang.Ast.Assign (Dh_lang.Ast.Lvar "x", e)) gen_small_expr;
              map
                (fun e -> Dh_lang.Ast.Assign (Dh_lang.Ast.Lderef (Dh_lang.Ast.Var "x"), e))
                gen_small_expr;
              map (fun e -> Dh_lang.Ast.Expr e) gen_small_expr;
              map (fun e -> Dh_lang.Ast.Return (Some e)) gen_small_expr;
              return (Dh_lang.Ast.Return None);
              return Dh_lang.Ast.Break;
              return Dh_lang.Ast.Continue;
            ]
        in
        if n <= 0 then leaf
        else
          frequency
            [
              (3, leaf);
              ( 1,
                map2
                  (fun c body -> Dh_lang.Ast.While (c, body))
                  gen_small_expr
                  (list_size (int_bound 3) (self (n / 2))) );
              ( 1,
                map3
                  (fun c t f -> Dh_lang.Ast.If (c, t, f))
                  gen_small_expr
                  (list_size (int_bound 3) (self (n / 2)))
                  (list_size (int_bound 2) (self (n / 2))) );
              ( 1,
                map2
                  (fun c body ->
                    Dh_lang.Ast.For
                      ( Some (Dh_lang.Ast.Decl ("i", Dh_lang.Ast.Int 0)),
                        Some c,
                        Some
                          (Dh_lang.Ast.Assign
                             ( Dh_lang.Ast.Lvar "i",
                               Dh_lang.Ast.Binop
                                 (Dh_lang.Ast.Add, Dh_lang.Ast.Var "i", Dh_lang.Ast.Int 1) )),
                        body ))
                  gen_small_expr
                  (list_size (int_bound 3) (self (n / 2))) );
            ]))

let prop_stmt_roundtrip =
  QCheck.Test.make ~name:"pretty-printed statements reparse to the same AST" ~count:300
    (QCheck.make gen_stmt)
    (fun s ->
      let program =
        { Dh_lang.Ast.funcs = [ { Dh_lang.Ast.name = "main"; params = []; body = [ s ] } ] }
      in
      match Dh_lang.Parser.parse_program (Dh_lang.Ast.to_string program) with
      | { Dh_lang.Ast.funcs = [ { Dh_lang.Ast.body = [ s' ]; _ } ] } -> s = s'
      | _ -> false)

(* --- theorem monotonicity sweeps --- *)

let prop_overflow_monotone_in_free_fraction =
  QCheck.Test.make ~name:"T1: masking probability increases with free fraction" ~count:300
    QCheck.(triple (float_bound_inclusive 0.98) (int_range 1 6) (int_range 1 4))
    (fun (f, o, kidx) ->
      let k = List.nth [ 1; 3; 4; 5 ] (kidx - 1) in
      let p1 = Dh_analysis.Theorems.overflow_mask_probability ~free_fraction:f ~objects:o ~replicas:k in
      let p2 =
        Dh_analysis.Theorems.overflow_mask_probability ~free_fraction:(f +. 0.01)
          ~objects:o ~replicas:k
      in
      p2 >= p1 -. 1e-12)

let prop_dangling_monotone_in_allocations =
  QCheck.Test.make ~name:"T2: masking probability decreases with A" ~count:300
    QCheck.(pair (int_range 0 5000) (int_range 1 4))
    (fun (a, kidx) ->
      let k = List.nth [ 1; 3; 4; 5 ] (kidx - 1) in
      let q = 10_000 in
      let p1 = Dh_analysis.Theorems.dangling_mask_probability ~allocations:a ~free_slots:q ~replicas:k in
      let p2 =
        Dh_analysis.Theorems.dangling_mask_probability ~allocations:(a + 100)
          ~free_slots:q ~replicas:k
      in
      p2 <= p1 +. 1e-12)

let prop_uninit_detect_is_probability =
  QCheck.Test.make ~name:"T3: always a probability in [0,1]" ~count:300
    QCheck.(pair (int_range 0 64) (int_range 1 16))
    (fun (bits, replicas) ->
      let p = Dh_analysis.Theorems.uninit_detect_probability ~bits ~replicas in
      p >= 0. && p <= 1.)

(* --- differential: DieHard and freelist on one small workload --- *)

let prop_allocators_agree =
  QCheck.Test.make ~name:"differential: diehard and freelist compute identical sums"
    ~count:25
    QCheck.(pair small_int (list_of_size (QCheck.Gen.return 60) (pair (int_bound 2000) bool)))
    (fun (seed, ops) ->
      let run_on alloc =
        let mem = alloc.Allocator.mem in
        let live = ref [] in
        let sum = ref 0 in
        List.iteri
          (fun i (sz, do_free) ->
            if do_free && !live <> [] then begin
              match !live with
              | (p, n, written) :: rest ->
                (* only read back memory the workload itself wrote *)
                if written then sum := (!sum + Mem.read64 mem p) land max_int;
                sum := (!sum + n) land max_int;
                alloc.Allocator.free p;
                live := rest
              | [] -> ()
            end
            else
              let p = alloc.Allocator.malloc (1 + sz) in
              if p <> Allocator.null then begin
                let written = 1 + sz >= 8 in
                if written then Mem.write64 mem p (i * 31);
                live := (p, i, written) :: !live
              end)
          ops;
        List.iter (fun (p, _, _) -> alloc.Allocator.free p) !live;
        !sum
      in
      let freelist = Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Mem.create ())) in
      let mem = Mem.create () in
      let dh =
        Heap.allocator
          (Heap.create ~config:(Config.v ~heap_size:(24 lsl 20) ~seed:(seed + 1) ()) mem)
      in
      run_on freelist = run_on dh)

(* --- differential: all six allocators ---

   Random well-behaved workloads (malloc, free, realloc, and writing then
   checksumming whole objects) replayed on every allocator in the
   repository.  Six independent memory managers must compute the same
   checksum, end with nothing live (except the collector, which reclaims
   when it collects, not at free, so its live count lags) and never
   raise.  DieHard's heap invariants are checked after every operation
   of the DieHard replays. *)

type fuzz_op =
  | Alloc of int  (* size *)
  | Free of int  (* index into the live objects, modulo their count *)
  | Realloc of int * int  (* index, new size *)
  | Touch of int  (* index: write then checksum the object *)

let show_fuzz_op = function
  | Alloc n -> Printf.sprintf "alloc %d" n
  | Free i -> Printf.sprintf "free #%d" i
  | Realloc (i, n) -> Printf.sprintf "realloc #%d %d" i n
  | Touch i -> Printf.sprintf "touch #%d" i

let gen_fuzz_op =
  QCheck.Gen.(
    let size = int_range 1 20_000 in
    frequency
      [
        (4, map (fun n -> Alloc n) size);
        (2, map (fun i -> Free i) nat);
        (1, map2 (fun i n -> Realloc (i, n)) nat size);
        (3, map (fun i -> Touch i) nat);
      ])

let mix h =
  let h = h lxor (h lsr 16) in
  let h = h * 0x45D9F3B land max_int in
  h lxor (h lsr 13)

(* Replay [ops] on [alloc], calling [check] after every operation; returns
   the checksum and the live count after freeing everything still live. *)
let replay ~check ops alloc =
  let mem = alloc.Allocator.mem in
  let live = ref [] in  (* (address, requested size), newest first *)
  let checksum = ref 0 in
  let add x = checksum := (!checksum + x) land max_int in
  let nth i = List.nth !live (i mod List.length !live) in
  let drop i = live := List.filteri (fun j _ -> j <> i mod List.length !live) !live in
  let touch opno (addr, sz) =
    for w = 0 to (sz / 8) - 1 do
      Mem.write64 mem (addr + (8 * w)) (mix ((opno * 31) + w))
    done;
    for w = 0 to (sz / 8) - 1 do
      add (Mem.read64 mem (addr + (8 * w)) land 0xFFFF)
    done
  in
  List.iteri
    (fun opno op ->
      let opno = opno + 1 in
      (match op with
      | Alloc sz -> (
        let addr = alloc.Allocator.malloc sz in
        if addr = Allocator.null then add 7
        else begin
          live := (addr, sz) :: !live;
          touch opno (addr, sz)
        end)
      | Free i when !live <> [] ->
        alloc.Allocator.free (fst (nth i));
        drop i
      | Realloc (i, sz) when !live <> [] -> (
        let fresh = Allocator.realloc alloc (fst (nth i)) sz in
        if fresh <> Allocator.null then begin
          drop i;
          live := (fresh, sz) :: !live;
          touch opno (fresh, sz)
        end)
      | Touch i when !live <> [] -> touch opno (nth i)
      | Free _ | Realloc _ | Touch _ -> ());
      check ())
    ops;
  List.iter (fun (addr, _) -> alloc.Allocator.free addr) !live;
  check ();
  (!checksum, alloc.Allocator.stats.Dh_alloc.Stats.live_objects)

(* Each allocator with the check to run after every operation. *)
let six_allocators ~seed =
  let no_check alloc = (alloc, ignore) in
  let config = Config.v ~heap_size:(48 lsl 20) ~seed () in
  [
    ( "freelist-lea",
      fun () -> no_check (Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Mem.create ())))
    );
    ( "freelist-win",
      fun () ->
        no_check
          (Dh_alloc.Freelist.allocator
             (Dh_alloc.Freelist.create ~variant:Dh_alloc.Freelist.Windows (Mem.create ()))) );
    ("gc-bdw", fun () -> no_check (Dh_alloc.Gc.allocator (Dh_alloc.Gc.create (Mem.create ()))));
    ( "diehard",
      fun () ->
        let heap = Heap.create ~config (Mem.create ()) in
        (Heap.allocator heap, fun () -> Heap.invariants heap) );
    ( "diehard-adaptive",
      fun () -> no_check (Adaptive.allocator (Adaptive.create ~seed (Mem.create ()))) );
    ( "diehard-hybrid",
      fun () ->
        let hybrid = Hybrid.create ~config (Mem.create ()) in
        (Hybrid.allocator hybrid, fun () -> Heap.invariants (Hybrid.protected_heap hybrid)) );
  ]

let prop_six_allocators_agree =
  QCheck.Test.make ~name:"differential: six allocators agree, none leaks or raises" ~count:15
    QCheck.(
      pair small_nat
        (make
           ~print:(fun ops -> String.concat "; " (List.map show_fuzz_op ops))
           ~shrink:Shrink.list
           Gen.(list_size (return 300) gen_fuzz_op)))
    (fun (seed, ops) ->
      let results =
        List.map
          (fun (name, make) ->
            ( name,
              match
                let alloc, check = make () in
                replay ~check ops alloc
              with
              | result -> Ok result
              | exception e -> Error (Printexc.to_string e) ))
          (six_allocators ~seed)
      in
      List.iter
        (fun (name, r) ->
          match r with
          | Error e -> QCheck.Test.fail_reportf "%s raised %s" name e
          | Ok (_, live) when live <> 0 && name <> "gc-bdw" ->
            QCheck.Test.fail_reportf "%s leaked %d objects" name live
          | Ok _ -> ())
        results;
      match List.sort_uniq compare (List.map (fun (_, r) -> Result.map fst r) results) with
      | [ _ ] -> true
      | _ ->
        QCheck.Test.fail_reportf "checksums differ: %s"
          (String.concat ", "
             (List.map
                (fun (name, r) ->
                  Printf.sprintf "%s %d" name (match r with Ok (sum, _) -> sum | Error _ -> -1))
                results)))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_voter_unanimous_iff_all_equal;
    QCheck_alcotest.to_alcotest prop_voter_majority_has_two_supporters;
    QCheck_alcotest.to_alcotest prop_voter_no_quorum_means_no_pair;
    QCheck_alcotest.to_alcotest prop_stmt_roundtrip;
    QCheck_alcotest.to_alcotest prop_overflow_monotone_in_free_fraction;
    QCheck_alcotest.to_alcotest prop_dangling_monotone_in_allocations;
    QCheck_alcotest.to_alcotest prop_uninit_detect_is_probability;
    QCheck_alcotest.to_alcotest prop_allocators_agree;
    QCheck_alcotest.to_alcotest prop_six_allocators_agree;
  ]
