(* Tests for the tooling extensions: realloc, the MiniC static checker,
   the heap-differencing diagnoser (§9), and lindsay-sim. *)

module Mem = Dh_mem.Mem
module Process = Dh_mem.Process
module Allocator = Dh_alloc.Allocator
module Program = Dh_alloc.Program

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- realloc --- *)

let with_diehard f =
  let mem = Mem.create () in
  let heap = Diehard.Heap.create ~config:(Diehard.Config.v ~heap_size:(12 * 256 * 1024) ()) mem in
  f mem (Diehard.Heap.allocator heap)

let test_realloc_grow_preserves () =
  with_diehard (fun mem a ->
      let p = Allocator.malloc_exn a 16 in
      Mem.write64 mem p 111;
      Mem.write64 mem (p + 8) 222;
      let q = Allocator.realloc a p 256 in
      if q = Allocator.null then Alcotest.fail "realloc failed";
      check_int "first word" 111 (Mem.read64 mem q);
      check_int "second word" 222 (Mem.read64 mem (q + 8));
      check "old object freed" true
        (match a.Allocator.find_object p with
        | Some { Allocator.allocated; _ } -> not allocated || p = q
        | None -> false))

let test_realloc_shrink_truncates () =
  with_diehard (fun mem a ->
      let p = Allocator.malloc_exn a 256 in
      Mem.write64 mem p 42;
      let q = Allocator.realloc a p 8 in
      if q = Allocator.null then Alcotest.fail "realloc failed";
      check_int "prefix preserved" 42 (Mem.read64 mem q))

let test_realloc_null_is_malloc () =
  with_diehard (fun _ a ->
      check "realloc(NULL, n) must allocate" true (Allocator.realloc a 0 64 <> Allocator.null))

let test_realloc_zero_frees () =
  with_diehard (fun _ a ->
      let p = Allocator.malloc_exn a 64 in
      check "returns NULL" true (Allocator.realloc a p 0 = Allocator.null);
      check_int "freed" 0 a.Allocator.stats.Dh_alloc.Stats.live_objects)

let test_realloc_minic_builtin () =
  with_diehard (fun _ a ->
      let program =
        Dh_lang.Interp.program_of_source ~name:"realloc"
          "fn main() { var p = malloc(16); p[0] = 7; p[1] = 8; \
           var q = realloc(p, 128); q[15] = 9; \
           print_int(q[0]); print_int(q[1]); print_int(q[15]); }"
      in
      let r = Program.run program a in
      check "exits" true (r.Process.outcome = Process.Exited 0);
      Alcotest.(check string) "output" "789" r.Process.output)

(* --- static checker --- *)

let diagnostics src =
  match Dh_lang.Interp.check_source src with
  | Ok _ -> []
  | Error msgs -> msgs

let has_diag needle msgs =
  List.exists
    (fun m ->
      let rec contains i =
        i + String.length needle <= String.length m
        && (String.sub m i (String.length needle) = needle || contains (i + 1))
      in
      contains 0)
    msgs

let test_check_clean_program () =
  match
    Dh_lang.Interp.check_source
      "fn helper(a, b) { return a + b; } fn main() { var x = helper(1, 2); \
       for (var i = 0; i < x; i = i + 1) { if (i == 2) { break; } } print_int(x); }"
  with
  | Ok _ -> ()
  | Error msgs -> Alcotest.failf "unexpected diagnostics: %s" (String.concat "; " msgs)

let test_check_unknown_variable () =
  check "unknown var" true
    (has_diag "unknown variable ghost" (diagnostics "fn main() { print_int(ghost); }"))

let test_check_out_of_scope () =
  check "block scope ends" true
    (has_diag "unknown variable y"
       (diagnostics "fn main() { { var y = 1; } print_int(y); }"));
  check "for-header scope ends" true
    (has_diag "unknown variable i"
       (diagnostics "fn main() { for (var i = 0; i < 3; i = i + 1) { } print_int(i); }"))

let test_check_callee_isolation () =
  check "callee cannot see caller locals" true
    (has_diag "unknown variable hidden"
       (diagnostics "fn f() { return hidden; } fn main() { var hidden = 1; print_int(f()); }"))

let test_check_unknown_function () =
  check "unknown function" true
    (has_diag "unknown function nope" (diagnostics "fn main() { nope(); }"))

let test_check_arity () =
  check "user arity" true
    (has_diag "f expects 1 argument(s), got 2"
       (diagnostics "fn f(a) { return a; } fn main() { f(1, 2); }"));
  check "builtin arity" true
    (has_diag "builtin malloc expects 1 argument(s), got 2"
       (diagnostics "fn main() { malloc(1, 2); }"))

let test_check_duplicates () =
  check "duplicate function" true
    (has_diag "duplicate function f" (diagnostics "fn f() { } fn f() { } fn main() { }"));
  check "duplicate parameter" true
    (has_diag "duplicate parameter a" (diagnostics "fn g(a, a) { } fn main() { }"));
  check "builtin shadowing" true
    (has_diag "shadows a builtin" (diagnostics "fn malloc(n) { return 0; } fn main() { }"))

let test_check_loop_control () =
  check "break outside loop" true
    (has_diag "break outside a loop" (diagnostics "fn main() { break; }"));
  check "continue outside loop" true
    (has_diag "continue outside a loop" (diagnostics "fn main() { continue; }"));
  check "break in loop ok" true (diagnostics "fn main() { while (1) { break; } }" = [])

let test_check_main () =
  check "missing main" true (has_diag "no main function" (diagnostics "fn f() { }"));
  check "main with params" true
    (has_diag "main takes no parameters" (diagnostics "fn main(argc) { }"))

let test_check_syntax_error_reported () =
  match Dh_lang.Interp.check_source "fn main() { var = ; }" with
  | Error (msg :: _) -> check "position prefix" true (String.length msg > 4)
  | Error [] | Ok _ -> Alcotest.fail "expected syntax diagnostics"

let test_check_shipped_apps_clean () =
  List.iter
    (fun (name, source) ->
      match Dh_lang.Interp.check_source source with
      | Ok _ -> ()
      | Error msgs ->
        Alcotest.failf "%s has diagnostics: %s" name (String.concat "; " msgs))
    [
      ("espresso", Dh_workload.Apps.espresso_source);
      ("squid", Dh_workload.Apps.squid_source);
      ("lindsay", Dh_workload.Apps.lindsay_source);
    ]

(* The whole list, in order: definitions first, then each body, a
   duplicate's included; operands left to right; a for loop whose step
   declares a variable reported once. *)
let test_check_exact_list () =
  Alcotest.(check (list string))
    "diagnostics"
    [
      "in <toplevel>: duplicate function g";
      "in <toplevel>: function malloc shadows a builtin";
      "in g: duplicate parameter a";
      "in g: unknown variable b";
      "in g: continue outside a loop";
      "in main: unknown variable i";
      "in main: unknown variable k";
      "in main: unknown variable y";
      "in main: builtin print_int expects 1 argument(s), got 2";
      "in main: break outside a loop";
      "in main: unknown variable q";
      "in main: unknown function nope";
    ]
    (diagnostics
       "fn g(a, a) { return b; }\n\
        fn g(c) { continue; }\n\
        fn malloc(n) { return 0; }\n\
        fn main() {\n\
       \  var j = i + k;\n\
       \  for (var x = 0; x < 2; var y = x) { print_int(y, 1); }\n\
       \  break;\n\
       \  g(1, 2);\n\
       \  nope(q);\n\
        }\n")

(* --- lindsay-sim --- *)

let test_lindsay_standalone_completes () =
  with_diehard (fun _ a ->
      let r = Program.run (Dh_workload.Apps.lindsay ()) a in
      check "completes quietly stand-alone" true (r.Process.outcome = Process.Exited 0))

let test_lindsay_uninit_detected_replicated () =
  (* "lindsay ... has an uninitialized read error that DieHard detects
     and terminates" (§7.2.3). *)
  let report =
    Diehard.Replicated.run
      ~config:(Diehard.Config.v ~heap_size:(12 * 256 * 1024) ())
      ~replicas:3 (Dh_workload.Apps.lindsay ())
  in
  check "detected" true
    (report.Diehard.Replicated.verdict = Diehard.Replicated.Uninit_read_detected)

(* --- diagnose (§9) --- *)

let test_diagnose_clean_program_quiet () =
  let program =
    Dh_lang.Interp.program_of_source ~name:"clean"
      "fn main() { var p = malloc(32); p[0] = 1; p[1] = 2; p[2] = 3; p[3] = 4; \
       var q = malloc(16); q[0] = p; q[1] = 5; print_int(p[0]); }"
  in
  let report = Diehard.Diagnose.run ~replicas:3 program in
  check "objects compared" true (report.Diehard.Diagnose.objects_compared >= 2);
  Alcotest.(check int) "no suspects" 0 (List.length report.Diehard.Diagnose.suspects)

let test_diagnose_pointers_normalized () =
  (* Stored pointers differ across replicas but must not be flagged. *)
  let program =
    Dh_lang.Interp.program_of_source ~name:"ptrs"
      "fn main() { var a = malloc(16); a[0] = 1; a[1] = 2; \
       var b = malloc(16); b[0] = a; b[1] = a + 8; print_int(1); }"
  in
  let report = Diehard.Diagnose.run ~replicas:3 program in
  Alcotest.(check int) "pointer words consistent" 0
    (List.length report.Diehard.Diagnose.suspects)

let test_diagnose_finds_uninit () =
  let program =
    Dh_lang.Interp.program_of_source ~name:"uninit"
      "fn main() { var p = malloc(32); p[0] = 1; p[1] = 2; p[2] = 3; print_int(p[0]); }"
  in
  (* p[3] is never written: with replicated random fill it diverges. *)
  let report = Diehard.Diagnose.run ~replicas:3 program in
  match report.Diehard.Diagnose.suspects with
  | [ { Diehard.Diagnose.offset = 24; kind = Diehard.Diagnose.Uninit_like; _ } ] -> ()
  | suspects ->
    Alcotest.failf "expected one uninit suspect at offset 24, got %d" (List.length suspects)

let test_diagnose_lindsay () =
  (* The diagnoser pinpoints lindsay's bug: the last word of the state
     array. *)
  let report = Diehard.Diagnose.run ~replicas:3 (Dh_workload.Apps.lindsay ()) in
  let uninit =
    List.filter
      (fun s -> s.Diehard.Diagnose.kind = Diehard.Diagnose.Uninit_like)
      report.Diehard.Diagnose.suspects
  in
  match uninit with
  | [ s ] ->
    check_int "the state array (128 bytes)" 128 s.Diehard.Diagnose.size;
    check_int "its last word" 120 s.Diehard.Diagnose.offset
  | _ -> Alcotest.failf "expected exactly one uninit suspect, got %d" (List.length uninit)

let test_diagnose_finds_corruption_site () =
  (* A one-word buffer overflow into a substantially-filled region: in
     the replicas whose layout put a live object next to the overflowing
     one, that victim's word diverges from the majority — a corruption
     signature pointing at the victim. *)
  let program =
    Dh_lang.Interp.program_of_source ~name:"overflow"
      "fn main() { var keep = malloc(8 * 200); \
       for (var i = 0; i < 200; i = i + 1) { \
         var p = malloc(64); \
         for (var j = 0; j < 8; j = j + 1) { p[j] = i * 100 + j; } \
         keep[i] = p; } \
       var evil = malloc(64); \
       for (var j = 0; j < 8; j = j + 1) { evil[j] = 1; } \
       evil[8] = 666666; \
       print_int(1); }"
  in
  (* Tiny heap: the 64-byte class has 512 slots, so ~40% fullness makes
     the overflow land on a live object often.  Different replicas hit
     different victims, so a majority stays intact. *)
  let config = Diehard.Config.v ~heap_size:(12 * 32 * 1024) () in
  let found_corruption = ref false in
  for master = 1 to 10 do
    let report =
      Diehard.Diagnose.run ~config ~replicas:3
        ~seed_pool:(Dh_rng.Seed.create ~master)
        program
    in
    List.iter
      (fun s ->
        match s.Diehard.Diagnose.kind with
        | Diehard.Diagnose.Corruption_like _ -> found_corruption := true
        | Diehard.Diagnose.Uninit_like -> ())
      report.Diehard.Diagnose.suspects
  done;
  check "overflow detected as corruption in some layout" true !found_corruption

let test_diagnose_report_printing () =
  let program =
    Dh_lang.Interp.program_of_source ~name:"uninit"
      "fn main() { var p = malloc(16); p[0] = 1; print_int(p[0]); }"
  in
  let report = Diehard.Diagnose.run ~replicas:3 program in
  let text = Format.asprintf "%a" Diehard.Diagnose.pp_report report in
  check "mentions replica count" true (String.length text > 10)

let suite =
  [
    Alcotest.test_case "realloc grow" `Quick test_realloc_grow_preserves;
    Alcotest.test_case "realloc shrink" `Quick test_realloc_shrink_truncates;
    Alcotest.test_case "realloc NULL" `Quick test_realloc_null_is_malloc;
    Alcotest.test_case "realloc zero" `Quick test_realloc_zero_frees;
    Alcotest.test_case "realloc MiniC" `Quick test_realloc_minic_builtin;
    Alcotest.test_case "check clean" `Quick test_check_clean_program;
    Alcotest.test_case "check unknown var" `Quick test_check_unknown_variable;
    Alcotest.test_case "check scoping" `Quick test_check_out_of_scope;
    Alcotest.test_case "check callee isolation" `Quick test_check_callee_isolation;
    Alcotest.test_case "check unknown fn" `Quick test_check_unknown_function;
    Alcotest.test_case "check arity" `Quick test_check_arity;
    Alcotest.test_case "check duplicates" `Quick test_check_duplicates;
    Alcotest.test_case "check loop control" `Quick test_check_loop_control;
    Alcotest.test_case "check main" `Quick test_check_main;
    Alcotest.test_case "check syntax errors" `Quick test_check_syntax_error_reported;
    Alcotest.test_case "check shipped apps" `Quick test_check_shipped_apps_clean;
    Alcotest.test_case "check exact list" `Quick test_check_exact_list;
    Alcotest.test_case "lindsay standalone" `Quick test_lindsay_standalone_completes;
    Alcotest.test_case "lindsay detected" `Quick test_lindsay_uninit_detected_replicated;
    Alcotest.test_case "diagnose clean" `Quick test_diagnose_clean_program_quiet;
    Alcotest.test_case "diagnose pointers" `Quick test_diagnose_pointers_normalized;
    Alcotest.test_case "diagnose uninit" `Quick test_diagnose_finds_uninit;
    Alcotest.test_case "diagnose lindsay" `Quick test_diagnose_lindsay;
    Alcotest.test_case "diagnose corruption" `Quick test_diagnose_finds_corruption_site;
    Alcotest.test_case "diagnose printing" `Quick test_diagnose_report_printing;
  ]
