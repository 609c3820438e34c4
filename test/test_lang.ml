(* Tests for MiniC: lexer, parser, pretty-printer roundtrip, interpreter
   semantics, and the memory-error behaviours that make MiniC a faithful
   stand-in for unsafe C programs. *)

module Mem = Dh_mem.Mem
module Process = Dh_mem.Process
module Allocator = Dh_alloc.Allocator
module Program = Dh_alloc.Program
open Dh_lang

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Run a source string under a fresh freelist allocator; return result. *)
let run_freelist ?(input = "") ?(policy_kind = Dh_alloc.Policy.Raw) ?libc src =
  let mem = Mem.create () in
  let fl = Dh_alloc.Freelist.create mem in
  let program = Interp.program_of_source ?libc ~name:"test" src in
  Program.run ~policy_kind ~input program (Dh_alloc.Freelist.allocator fl)

let run_diehard ?(input = "") ?libc ?(seed = 1) src =
  let mem = Mem.create () in
  let config = Diehard.Config.v ~heap_size:(12 * 64 * 1024) ~seed () in
  let heap = Diehard.Heap.create ~config mem in
  let program = Interp.program_of_source ?libc ~name:"test" src in
  Program.run ~input program (Diehard.Heap.allocator heap)

let output_of result = result.Process.output

let expect_output ?input ?libc src expected =
  let r = run_freelist ?input ?libc src in
  (match r.Process.outcome with
  | Process.Exited 0 -> ()
  | other -> Alcotest.failf "program did not exit cleanly: %s" (Process.outcome_to_string other));
  check_string "output" expected (output_of r)

(* --- lexer --- *)

let test_lex_basics () =
  let toks = Lexer.tokenize "fn main() { var x = 42; }" in
  let kinds = Array.to_list (Array.map (fun p -> p.Lexer.token) toks) in
  check "token stream" true
    (kinds
    = [ Lexer.KW_FN; Lexer.IDENT "main"; Lexer.LPAREN; Lexer.RPAREN; Lexer.LBRACE;
        Lexer.KW_VAR; Lexer.IDENT "x"; Lexer.EQ; Lexer.INT 42; Lexer.SEMI;
        Lexer.RBRACE; Lexer.EOF ])

let test_lex_operators () =
  let toks = Lexer.tokenize "== != <= >= << >> && || = < >" in
  let kinds = Array.to_list (Array.map (fun p -> p.Lexer.token) toks) in
  check "operators" true
    (kinds
    = [ Lexer.EQEQ; Lexer.NE; Lexer.LE; Lexer.GE; Lexer.SHL; Lexer.SHR;
        Lexer.AMPAMP; Lexer.PIPEPIPE; Lexer.EQ; Lexer.LT; Lexer.GT; Lexer.EOF ])

let test_lex_string_escapes () =
  let toks = Lexer.tokenize {|"a\nb\t\"c\\" 'x' '\n'|} in
  (match toks.(0).Lexer.token with
  | Lexer.STRING s -> check_string "escapes" "a\nb\t\"c\\" s
  | _ -> Alcotest.fail "expected string");
  (match toks.(1).Lexer.token with
  | Lexer.CHAR 'x' -> ()
  | _ -> Alcotest.fail "expected char");
  match toks.(2).Lexer.token with
  | Lexer.CHAR '\n' -> ()
  | _ -> Alcotest.fail "expected newline char"

let test_lex_comments () =
  let toks = Lexer.tokenize "1 // comment\n 2 /* multi\nline */ 3" in
  let ints =
    Array.to_list toks
    |> List.filter_map (fun p ->
           match p.Lexer.token with Lexer.INT n -> Some n | _ -> None)
  in
  Alcotest.(check (list int)) "comments skipped" [ 1; 2; 3 ] ints

let test_lex_positions () =
  let toks = Lexer.tokenize "a\n  b" in
  check_int "a line" 1 toks.(0).Lexer.line;
  check_int "b line" 2 toks.(1).Lexer.line;
  check_int "b col" 3 toks.(1).Lexer.col

let test_lex_error () =
  match Lexer.tokenize "a $ b" with
  | exception Lexer.Lex_error (_, 1, 3) -> ()
  | exception Lexer.Lex_error (_, l, c) ->
    Alcotest.failf "wrong position %d:%d" l c
  | _ -> Alcotest.fail "expected lex error"

(* --- parser --- *)

(* An expression, parsed as the one statement of a program's [main]. *)
let parse_expr src =
  match Parser.parse_program ("fn main() { return " ^ src ^ "; }") with
  | { Ast.funcs = [ { Ast.body = [ Ast.Return (Some e) ]; _ } ] } -> e
  | _ -> Alcotest.failf "%S is not one expression" src

let test_parse_precedence () =
  let e = parse_expr "1 + 2 * 3" in
  check "mul binds tighter" true
    (e = Ast.Binop (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Int 3)));
  let e = parse_expr "1 < 2 && 3 < 4" in
  (match e with
  | Ast.Binop (Ast.And, Ast.Binop (Ast.Lt, _, _), Ast.Binop (Ast.Lt, _, _)) -> ()
  | _ -> Alcotest.fail "comparison binds tighter than &&");
  let e = parse_expr "1 + 2 + 3" in
  match e with
  | Ast.Binop (Ast.Add, Ast.Binop (Ast.Add, _, _), _) -> ()
  | _ -> Alcotest.fail "addition is left-associative"

let test_parse_unary_and_index () =
  (match parse_expr "*p" with
  | Ast.Unop (Ast.Deref, Ast.Var "p") -> ()
  | _ -> Alcotest.fail "deref");
  (match parse_expr "a[i + 1]" with
  | Ast.Index (Ast.Var "a", Ast.Binop (Ast.Add, _, _)) -> ()
  | _ -> Alcotest.fail "index");
  match parse_expr "-x[0]" with
  | Ast.Unop (Ast.Neg, Ast.Index (_, _)) -> ()
  | _ -> Alcotest.fail "unary binds looser than postfix"

let test_parse_statements () =
  let p =
    Parser.parse_program
      "fn main() { var i = 0; for (i = 0; i < 10; i = i + 1) { continue; } \
       while (1) { break; } if (i) { return 1; } else { return; } }"
  in
  match p.Ast.funcs with
  | [ { Ast.body; _ } ] -> check_int "four statements" 4 (List.length body)
  | _ -> Alcotest.fail "one function expected"

let test_parse_else_if () =
  let p = Parser.parse_program "fn main() { if (1) { } else if (2) { } else { } }" in
  match p.Ast.funcs with
  | [ { Ast.body = [ Ast.If (_, [], [ Ast.If (_, [], []) ]) ]; _ } ] -> ()
  | _ -> Alcotest.fail "else-if chain shape"

let test_parse_error_position () =
  match Parser.parse_program "fn main() { var = 3; }" with
  | exception Parser.Syntax_error (_, 1, _) -> ()
  | _ -> Alcotest.fail "expected syntax error"

let test_parse_bad_lvalue () =
  match Parser.parse_program "fn main() { 1 + 2 = 3; }" with
  | exception Parser.Syntax_error (msg, _, _) ->
    check "mentions lvalue" true
      (String.length msg > 0
      && String.sub msg 0 (min 9 (String.length msg)) = "left-hand")
  | _ -> Alcotest.fail "expected lvalue error"

let test_pretty_roundtrip () =
  let src =
    "fn helper(a, b) { return a + b * 2; } fn main() { var p = malloc(64); \
     p[0] = helper(1, 2); *(p + 8) = 'x'; if (p[0] > 3) { \
     print_str(\"big\\n\"); } else { print_int(p[0]); } for (var i = 0; i < \
     4; i = i + 1) { print_int(i); } free(p); return 0; }"
  in
  let ast1 = Parser.parse_program src in
  let printed = Ast.to_string ast1 in
  let ast2 = Parser.parse_program printed in
  check "parse(print(parse src)) = parse src" true (ast1 = ast2)

let test_string_literals_collected () =
  let p = Parser.parse_program {|fn main() { print_str("a"); print_str("b"); print_str("a"); }|} in
  Alcotest.(check (list string)) "deduplicated, in order" [ "a"; "b" ]
    (Ast.string_literals p)

(* --- interpreter: pure semantics --- *)

let test_arithmetic () =
  expect_output "fn main() { print_int(2 + 3 * 4 - 6 / 2); }" "11";
  expect_output "fn main() { print_int(17 % 5); }" "2";
  expect_output "fn main() { print_int(-7); }" "-7";
  expect_output "fn main() { print_int(1 << 10); }" "1024";
  (* odd shift amounts (regression: a mask bug once turned >>1 into >>0) *)
  expect_output "fn main() { print_int(7 >> 1); print_int(1 << 3); print_int(-8 >> 1); }"
    "38-4";
  expect_output "fn main() { print_int(255 & 15); print_int(1 | 2); print_int(5 ^ 1); }"
    "1534"

let test_comparisons_and_logic () =
  expect_output "fn main() { print_int(3 < 4); print_int(4 <= 4); print_int(5 > 6); }"
    "110";
  expect_output "fn main() { print_int(1 && 0); print_int(1 || 0); print_int(!3); }"
    "010"

let test_short_circuit () =
  (* The right operand must not run when short-circuited: a diverging
     call guarded by && would otherwise crash via unknown variable. *)
  expect_output
    "fn boom() { var x = *0; return x; } fn main() { print_int(0 && boom()); }" "0"

let test_variables_and_scope () =
  expect_output "fn main() { var x = 1; { var x = 2; print_int(x); } print_int(x); }"
    "21";
  expect_output "fn main() { var x = 1; x = x + 41; print_int(x); }" "42"

let test_functions () =
  expect_output
    "fn add(a, b) { return a + b; } fn main() { print_int(add(40, 2)); }" "42";
  expect_output
    "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } \
     fn main() { print_int(fib(10)); }"
    "55";
  expect_output "fn f() { return; } fn main() { print_int(f()); }" "0"

let test_functions_do_not_see_caller_locals () =
  (* Runtime_error deliberately escapes Process.run: it is a bug in the
     MiniC source, not a simulated memory error. *)
  match
    run_freelist
      "fn f() { return hidden; } fn main() { var hidden = 1; print_int(f()); }"
  with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "callee saw caller's local"

let test_loops () =
  expect_output
    "fn main() { var s = 0; for (var i = 1; i <= 10; i = i + 1) { s = s + i; } print_int(s); }"
    "55";
  expect_output
    "fn main() { var i = 0; while (i < 3) { print_int(i); i = i + 1; } }" "012";
  expect_output
    "fn main() { for (var i = 0; i < 10; i = i + 1) { if (i == 3) { break; } print_int(i); } }"
    "012";
  expect_output
    "fn main() { for (var i = 0; i < 5; i = i + 1) { if (i % 2) { continue; } print_int(i); } }"
    "024"

let test_exit_code () =
  let r = run_freelist "fn main() { exit(7); print_int(1); }" in
  check "exit code 7" true (r.Process.outcome = Process.Exited 7);
  check_string "no output after exit" "" (output_of r);
  let r = run_freelist "fn main() { return 3; }" in
  check "nonzero main return" true (r.Process.outcome = Process.Exited 3)

let test_strings_and_io () =
  expect_output {|fn main() { print_str("hello\n"); print_char('!'); }|} "hello\n!";
  expect_output ~input:"ab" "fn main() { print_int(getchar()); print_int(getchar()); print_int(getchar()); }"
    "9798-1";
  expect_output {|fn main() { print_int(strlen("hello")); }|} "5";
  expect_output {|fn main() { print_int(strcmp("abc", "abc")); print_int(strcmp("a", "b") < 0); }|}
    "01"

let test_now_intercepted () =
  (* Three differently-seeded replicas read the same intercepted clock,
     so the voter commits their output unanimously. *)
  let program = Interp.program_of_source ~name:"t" "fn main() { print_int(now()); }" in
  let report = Diehard.Replicated.run ~replicas:3 program in
  check "replicas agree" true (report.Diehard.Replicated.verdict = Diehard.Replicated.Agreed);
  check_int "no replica eliminated" 0
    (List.length
       (List.filter
          (fun r -> r.Diehard.Replicated.eliminated <> None)
          report.Diehard.Replicated.replicas));
  check_string "clock value" "0" report.Diehard.Replicated.output

(* A zero divisor traps the simulated machine, so every layer above a
   process sees a crash.  Replicated: a replica whose random fill made
   the uninitialized byte even traps and is dropped, and the rest vote
   (the §6.3 detection the replicas exist for).  Campaign: a crash.
   Supervisor: each rung crashes and the ladder gives up. *)
let trap_source = "fn main() { var p = malloc(8); var x = load8(p) % 2; print_int(10 % x); }"

let test_arith_trap_is_a_crash () =
  let module R = Diehard.Replicated in
  let program = Interp.program_of_source ~name:"trap" trap_source in
  let mixed = ref 0 in
  for master = 1 to 8 do
    let report = R.run ~replicas:3 ~seed_pool:(Dh_rng.Seed.create ~master) program in
    let trapped, exited =
      List.partition
        (fun r -> match r.R.outcome with Process.Crashed _ -> true | _ -> false)
        report.R.replicas
    in
    List.iter
      (fun r ->
        check "the trap is a modulo by zero" true
          (r.R.outcome = Process.Crashed (Dh_mem.Fault.Arith_trap Dh_mem.Fault.Modulo));
        check "a trapping replica is dropped" true (r.R.eliminated = Some R.Died))
      trapped;
    if exited = [] then check "all died" true (report.R.verdict = R.All_died)
    else begin
      check "the rest agree" true (report.R.verdict = R.Agreed);
      check_string "their vote" "0" report.R.output
    end;
    if trapped <> [] && exited <> [] then incr mixed
  done;
  check "some run drops a replica and votes" true (!mixed > 0);
  let result = run_freelist "fn main() { print_int(7); print_int(1 / 0); }" in
  check "campaign tallies a crash" true
    (Dh_fault.Campaign.classify ~reference:"7" result = Dh_fault.Campaign.Crashed);
  check_string "output before the trap is kept" "7" result.Process.output;
  let incident =
    Diehard.Supervisor.run (Interp.program_of_source ~name:"t" "fn main() { print_int(1 / 0); }")
  in
  check "the ladder gives up" true (incident.Diehard.Supervisor.verdict = Diehard.Supervisor.Gave_up);
  List.iter
    (fun (a : Diehard.Supervisor.attempt_report) ->
      check "every rung traps" true
        (a.Diehard.Supervisor.outcome = Process.Crashed (Dh_mem.Fault.Arith_trap Dh_mem.Fault.Division)))
    incident.Diehard.Supervisor.attempts

(* --- interpreter: heap behaviour --- *)

let test_heap_roundtrip () =
  expect_output
    "fn main() { var p = malloc(64); p[0] = 42; p[1] = p[0] + 1; \
     print_int(p[0]); print_int(p[1]); free(p); }"
    "4243";
  expect_output
    "fn main() { var p = malloc(16); *p = 7; *(p + 8) = 8; print_int(*p + *(p+8)); }"
    "15"

let test_byte_access () =
  expect_output
    "fn main() { var p = malloc(8); store8(p, 65); store8(p + 1, 66); store8(p + 2, 0); print_str(p); }"
    "AB"

let test_calloc_zeroed () =
  expect_output "fn main() { var p = calloc(64); print_int(p[0] + p[7]); }" "0"

let test_strcpy_builtin () =
  expect_output
    {|fn main() { var p = malloc(32); strcpy(p, "copied"); print_str(p); }|} "copied"

let test_gets_reads_line () =
  expect_output ~input:"first\nsecond"
    "fn main() { var p = malloc(64); gets(p); print_str(p); print_char('|'); gets(p); print_str(p); }"
    "first|second"

let test_malloc_failure_returns_null () =
  (* Exhaust a tiny DieHard size class and observe NULL. *)
  let r =
    run_diehard
      "fn main() { var n = 0; for (var i = 0; i < 100000; i = i + 1) { \
       var p = malloc(16384); if (p == 0) { print_int(n); exit(0); } n = n + 1; } }"
  in
  check "exited" true (r.Process.outcome = Process.Exited 0);
  (* 64KB region, 16KB objects, M=2: exactly 2 allocations fit *)
  check_string "threshold hit after 2" "2" (output_of r)

(* --- interpreter: memory errors behave like C --- *)

let test_wild_write_crashes () =
  let r = run_freelist "fn main() { *1234567899 = 1; }" in
  match r.Process.outcome with
  | Process.Crashed (Dh_mem.Fault.Unmapped _) -> ()
  | o -> Alcotest.failf "expected crash, got %s" (Process.outcome_to_string o)

let test_null_deref_crashes () =
  let r = run_freelist "fn main() { print_int(*0); }" in
  match r.Process.outcome with
  | Process.Crashed _ -> ()
  | o -> Alcotest.failf "expected crash, got %s" (Process.outcome_to_string o)

let test_overflow_corrupts_neighbour_freelist () =
  (* Two adjacent chunks under the freelist allocator: writing one word
     past p lands in q's header/payload area. *)
  let r =
    run_freelist
      "fn main() { var p = malloc(8); var q = malloc(8); q[0] = 111; \
       p[3] = 222; print_int(q[0]); }"
  in
  (* p[3] = *(p+24); chunk is 32 bytes total: 8 header + 24 payload, so
     p+24 is exactly q's header. q's data may or may not change, but the
     program must keep running (silent corruption). *)
  check "silent corruption, no crash" true (r.Process.outcome = Process.Exited 0)

let test_uninitialized_read_stale_data () =
  (* freelist: freed memory is recycled without clearing *)
  let r =
    run_freelist
      "fn main() { var p = malloc(64); p[2] = 12345; free(p); \
       var q = malloc(64); print_int(q[2]); }"
  in
  check_string "stale data visible" "12345" (output_of r)

let test_fail_stop_policy_aborts_overflow () =
  let r =
    run_freelist ~policy_kind:Dh_alloc.Policy.Fail_stop
      "fn main() { var p = malloc(24); p[3] = 1; }"
  in
  match r.Process.outcome with
  | Process.Aborted _ -> ()
  | o -> Alcotest.failf "expected abort, got %s" (Process.outcome_to_string o)

let test_oblivious_policy_survives_overflow () =
  let r =
    run_freelist ~policy_kind:Dh_alloc.Policy.Oblivious
      "fn main() { var p = malloc(24); p[5] = 1; print_str(\"alive\"); }"
  in
  check "continues" true (r.Process.outcome = Process.Exited 0);
  check_string "output" "alive" (output_of r)

(* --- the libc builtins, bounded (§4.4) and unchecked --- *)

(* One table for both libcs, each program run on a fresh stand-alone
   DieHard heap.  A program prints what it observes; its row names the
   libc and the output it expects.  The heap is zero outside the objects
   a program wrote, so a byte just past a destination reads back 0
   unless a copy ran past the destination's object.  [big(c)] is a
   256-byte object holding 200 [c]s and a NUL. *)
let libc_prelude =
  {|fn show(v) { print_int(v); print_char(' '); }
    fn big(c) { var b = malloc(256); memset(b, c, 200); store8(b + 200, 0); return b; }
|}

let strcpy_overflow =
  {|fn main() { var src = big('A'); var d = malloc(8); strcpy(d, src);
       show(strlen(d)); show(load8(d + 8)); }|}

(* The copy writes the NUL and nothing after it. *)
let strcpy_fits =
  {|fn main() { var s = malloc(64); strcpy(s, "short"); var d = malloc(64); memset(d, 'Z', 64);
       strcpy(d, s); print_str(d); print_char(' '); show(load8(d + 5)); show(load8(d + 6)); }|}

let strncpy_overflow =
  {|fn main() { var src = big('C'); var d = malloc(8); strncpy(d, src, 100);
       show(load8(d + 7)); show(load8(d + 8)); }|}

(* A 100-byte request gets a 128-byte slot; the memset starts 40 bytes
   into a 64-byte slot of another size class. *)
let memcpy_memset_overflow =
  {|fn main() { var src = malloc(256); memset(src, 'D', 256);
       var d = malloc(100); memcpy(d, src, 256); show(load8(d + 127)); show(load8(d + 128));
       var e = malloc(40); memset(e + 40, 9, 100); show(load8(e + 63)); show(load8(e + 64)); }|}

let libc_cases =
  [
    ("bounded libc truncates", Interp.Bounded, strcpy_overflow, "7 0 ");
    ("unchecked libc overflows", Interp.Unchecked, strcpy_overflow, "200 65 ");
    ( "bounded libc: strcpy NUL in last byte",
      Interp.Bounded,
      {|fn main() { var src = big('A'); var d = malloc(8); strcpy(d, src);
           show(load8(d + 6)); show(load8(d + 7)); show(load8(d + 8)); }|},
      "65 0 0 " );
    ( "unchecked libc: strcpy runs far past",
      Interp.Unchecked,
      {|fn main() { var src = malloc(128); memset(src, 'A', 64); store8(src + 64, 0);
           var d = malloc(8); strcpy(d, src); show(load8(d + 50)); show(load8(d + 64)); }|},
      "65 0 " );
    ("bounded libc: strcpy fits", Interp.Bounded, strcpy_fits, "short 0 90 ");
    ("unchecked libc: strcpy fits", Interp.Unchecked, strcpy_fits, "short 0 90 ");
    ( "bounded libc: strcpy interior pointer",
      Interp.Bounded,
      (* 16 - 10 = 6 bytes of room: five characters and the NUL *)
      {|fn main() { var src = big('B'); var d = malloc(16); strcpy(d + 10, src);
           show(strlen(d + 10)); show(load8(d + 16)); }|},
      "5 0 " );
    ("bounded libc: strncpy n cut to object", Interp.Bounded, strncpy_overflow, "67 0 ");
    ("unchecked libc: strncpy overflows", Interp.Unchecked, strncpy_overflow, "67 67 ");
    ( "bounded libc: strncpy pads",
      Interp.Bounded,
      {|fn main() { var d = malloc(8); memset(d, 'Z', 8); strncpy(d, "ab", 6);
           for (var i = 0; i < 8; i = i + 1) { show(load8(d + i)); } }|},
      "97 98 0 0 0 0 90 90 " );
    ( "bounded libc: strncpy truncates",
      Interp.Bounded,
      {|fn main() { var d = malloc(8); memset(d, 'Z', 8); strncpy(d, "abcdef", 3);
           for (var i = 0; i < 4; i = i + 1) { show(load8(d + i)); } }|},
      "97 98 99 90 " );
    ( "bounded libc: strcmp",
      Interp.Bounded,
      {|fn main() { var a = malloc(8); strcpy(a, "abc");
           show(strcmp(a, "abc")); show(strcmp(a, "abd") < 0); show(strcmp("abd", a) > 0); }|},
      "0 1 1 " );
    ( "bounded libc: strlen",
      Interp.Bounded,
      {|fn main() { var a = malloc(8); strcpy(a, "hello"); show(strlen(a)); show(strlen("")); }|},
      "5 0 " );
    ("bounded libc: memcpy/memset bounded", Interp.Bounded, memcpy_memset_overflow, "68 0 9 0 ");
    ( "bounded libc: room at base, interior",
      Interp.Bounded,
      (* a 100-byte request has 128 bytes of room at its base, 28 at +100 *)
      {|fn main() { var p = malloc(100); memset(p, 1, 1000); show(load8(p + 127)); show(load8(p + 128));
           memset(p + 100, 2, 1000);
           show(load8(p + 99)); show(load8(p + 100)); show(load8(p + 127)); show(load8(p + 128)); }|},
      "1 0 1 2 2 0 " );
    ("unchecked libc: memcpy/memset overflow", Interp.Unchecked, memcpy_memset_overflow,
      "68 68 9 9 ");
    ( "bounded libc: freed dst unchecked",
      Interp.Bounded,
      {|fn main() { var src = big('E'); var d = malloc(8); free(d); strcpy(d, src);
           show(strlen(d)); }|},
      "200 " );
  ]

let libc_tests =
  List.map
    (fun (name, libc, main, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          let r = run_diehard ~libc (libc_prelude ^ main) in
          check "exits cleanly" true (r.Process.outcome = Process.Exited 0);
          check_string "output" expected (output_of r)))
    libc_cases

let test_runtime_errors () =
  let expect_runtime_error src msg =
    match run_freelist src with
    | exception Interp.Runtime_error m -> check_string src msg m
    | _ -> Alcotest.failf "expected Runtime_error: %s" src
  in
  expect_runtime_error "fn main() { print_int(nope); }" "unknown variable nope";
  expect_runtime_error "fn main() { nope = 1; }" "unknown variable nope";
  expect_runtime_error "fn main() { nope(1); }" "unknown function nope";
  expect_runtime_error "fn f(a) { return a; } fn main() { f(1, 2); }"
    "f expects 1 argument(s), got 2";
  expect_runtime_error "fn main() { print_int(1, 2); }" "print_int expects 1 argument(s), got 2";
  (* A zero divisor is no error in the program text but the simulated
     machine's arithmetic trap: the process crashes. *)
  let expect_trap src op =
    match (run_freelist src).Process.outcome with
    | Process.Crashed (Dh_mem.Fault.Arith_trap o) when o = op -> ()
    | o -> Alcotest.failf "expected an arithmetic trap: %s gave %s" src (Process.outcome_to_string o)
  in
  expect_trap "fn main() { print_int(1 / 0); }" Dh_mem.Fault.Division;
  expect_trap "fn main() { print_int(1 % 0); }" Dh_mem.Fault.Modulo;
  expect_runtime_error "fn notmain() { }" "no main function";
  expect_runtime_error "fn main(a) { }" "main takes no parameters";
  (* Errors are raised only when reached: the same faults in code that
     never runs leave the program to finish normally. *)
  expect_output
    "fn f(a) { return a; } fn main() { if (0) { nope(1); print_int(missing); f(1, 2); \
     print_int(1, 2); missing = 3; } print_int(5); }"
    "5";
  expect_output "fn never() { return nope(undefined); } fn main() { print_int(7); }" "7";
  (* An arity error evaluates the arguments first; an unknown function
     does not. *)
  let mallocs_before_error src =
    let a = Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Mem.create ())) in
    (match Program.run (Interp.program_of_source ~name:"t" src) a with
    | exception Interp.Runtime_error _ -> ()
    | _ -> Alcotest.failf "expected Runtime_error: %s" src);
    a.Allocator.stats.Dh_alloc.Stats.mallocs
  in
  check_int "arity error after its arguments" 1
    (mallocs_before_error "fn main() { print_int(malloc(8), 2); }");
  check_int "user arity error after its arguments" 1
    (mallocs_before_error "fn f(a) { return a; } fn main() { f(malloc(8), 2); }");
  check_int "unknown function before its arguments" 0
    (mallocs_before_error "fn main() { nope(malloc(8)); }")

(* The scoping corners a slot-resolving interpreter could get wrong (the
   corpus runs the same programs under every runtime). *)
let test_scoping_corners () =
  expect_output
    "fn main() { var x = 1; { var x = x + 10; print_int(x); { var x = x * 2; print_int(x); } \
     x = x + 1; print_int(x); } print_int(x); }"
    "1122121";
  expect_output "fn main() { var x = 1; var y = 2; var x = x + y; print_int(x); print_int(y); }"
    "32";
  (* a use before a later [var] of the same name in a loop body sees the
     outer variable, on every iteration *)
  expect_output
    "fn main() { var x = 1; var i = 0; while (i < 3) { print_int(x); var x = 10 + i; \
     print_int(x); i = i + 1; } print_int(x); }"
    "1101111121";
  (* a [var] in a for step is declared by the step's first run *)
  expect_output
    "fn main() { var k = 100; for (var i = 0; i < 4; var k = i) { print_int(k); \
     print_char(' '); i = i + 1; } print_int(k); }"
    "100 1 2 3 100";
  expect_output
    "fn main() { var n = 5; for (var i = 0; i < 3; var n = n + i) { print_int(n); \
     i = i + 1; } print_int(n); }"
    "5685";
  expect_output
    "fn f(a, b) { var a = a + b; { var b = a * 2; print_int(b); } return a + b; } \
     fn main() { print_int(f(3, 4)); }"
    "1411"

let test_infinite_loop_times_out () =
  let mem = Mem.create () in
  let fl = Dh_alloc.Freelist.create mem in
  let program = Interp.program_of_source ~name:"spin" "fn main() { while (1) { } }" in
  let r = Program.run ~fuel:10_000 program (Dh_alloc.Freelist.allocator fl) in
  check "timeout" true (r.Process.outcome = Process.Timeout)

(* --- GC root integration --- *)

let test_gc_roots_from_interpreter () =
  (* A long-running loop that drops objects: under the GC allocator with
     a small heap it must keep running because interpreter variables are
     roots and dropped objects get collected. *)
  let mem = Mem.create () in
  let gc = Dh_alloc.Gc.create ~arena_size:16384 ~heap_limit:16384 mem in
  let program =
    Interp.program_of_source ~name:"churn"
      "fn main() { var keep = malloc(64); keep[0] = 99; \
       for (var i = 0; i < 500; i = i + 1) { var tmp = malloc(64); tmp[0] = i; } \
       print_int(keep[0]); }"
  in
  let r = Program.run program (Dh_alloc.Gc.allocator gc) in
  check "survived churn in a tiny heap" true (r.Process.outcome = Process.Exited 0);
  check_string "rooted object intact" "99" (output_of r)

(* Roots are exact: a variable of a block that has exited is not one.
   Here it holds the only pointer to a 12000-byte object that must be
   collected for the next allocation to fit a 16 KiB heap. *)
let test_gc_roots_exclude_exited_blocks () =
  let run src =
    let mem = Mem.create () in
    let gc = Dh_alloc.Gc.create ~arena_size:16384 ~heap_limit:16384 mem in
    Program.run (Interp.program_of_source ~name:"exited" src) (Dh_alloc.Gc.allocator gc)
  in
  let r =
    run
      "fn main() { var n = 0; { var big = malloc(12000); big[0] = 7; n = big[0]; } \
       var other = malloc(12000); print_int(other != 0); print_int(n); }"
  in
  check "exited" true (r.Process.outcome = Process.Exited 0);
  check_string "the exited block's object was collected" "17" (output_of r);
  (* the same object still in scope stays alive, and the allocation fails *)
  let r =
    run
      "fn main() { var big = malloc(12000); big[0] = 7; var other = malloc(12000); \
       print_int(other != 0); print_int(big[0]); }"
  in
  check_string "an in-scope object is a root" "07" (output_of r);
  (* so does one held by a caller while the callee allocates *)
  let r =
    run
      "fn grab() { return malloc(12000); } fn main() { var big = malloc(12000); \
       big[0] = 7; print_int(grab() != 0); print_int(big[0]); }"
  in
  check_string "a caller's variable is a root" "07" (output_of r)

(* --- qcheck: pretty-print / reparse roundtrip on generated ASTs --- *)

let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun i -> Ast.Int i) (int_bound 1000);
              map (fun s -> Ast.Var ("v" ^ string_of_int s)) (int_bound 5) ]
        else
          frequency
            [ (2, map (fun i -> Ast.Int i) (int_bound 1000));
              (1, map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) (self (n / 2)) (self (n / 2)));
              (1, map2 (fun a b -> Ast.Binop (Ast.Mul, a, b)) (self (n / 2)) (self (n / 2)));
              (1, map2 (fun a b -> Ast.Binop (Ast.Lt, a, b)) (self (n / 2)) (self (n / 2)));
              (1, map (fun a -> Ast.Unop (Ast.Neg, a)) (self (n - 1)));
              (1, map2 (fun a b -> Ast.Index (a, b)) (self (n / 2)) (self (n / 2)))
            ]))

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"pretty-printed expressions reparse to the same AST" ~count:200
    (QCheck.make gen_expr)
    (fun e ->
      let program = { Ast.funcs = [ { Ast.name = "main"; params = []; body = [ Ast.Expr e ] } ] } in
      let printed = Ast.to_string program in
      match Parser.parse_program printed with
      | { Ast.funcs = [ { Ast.body = [ Ast.Expr e' ]; _ } ] } -> e = e'
      | _ -> false)

(* --- qcheck: expressions against a reference evaluator --- *)

(* Random integer expressions over the variables [a], [b], [c] and
   constants, with every operator, and calls of [t], which prints its
   argument as [<v>] and returns it, so the output records which calls
   ran and in what order (short-circuit included). *)
let gen_arith_expr =
  let binops =
    Ast.[ Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or; Band; Bor; Bxor; Shl; Shr ]
  in
  QCheck.Gen.(
    sized_size (int_bound 12) @@ fix (fun self n ->
        let leaf =
          oneof
            [ map (fun i -> Ast.Int i) (oneofl [ 0; 1; 2; 3; 7; 63; 64; 65; 1000 ]);
              map (fun c -> Ast.Char c) (oneofl [ 'A'; 'z' ]);
              map (fun x -> Ast.Var x) (oneofl [ "a"; "b"; "c" ]) ]
        in
        if n <= 0 then leaf
        else
          frequency
            [ (2, leaf);
              (5, map3 (fun op a b -> Ast.Binop (op, a, b)) (oneofl binops) (self (n / 2)) (self (n / 2)));
              (1, map2 (fun op a -> Ast.Unop (op, a)) (oneofl Ast.[ Neg; Not; Bnot ]) (self (n - 1)));
              (1, map (fun a -> Ast.Call ("t", [ a ])) (self (n - 1))) ]))

exception Reference_error of string

(* The reference semantics: 63-bit wrapping arithmetic, C-style
   truncating division and remainder that fail on a zero divisor, shift
   counts taken mod 64, short-circuit [&&] and [||], operands left to
   right.  [trace] receives what the calls of [t] print. *)
let rec reference env trace (e : Ast.expr) =
  let eval = reference env trace and of_bool b = if b then 1 else 0 in
  match e with
  | Ast.Int n -> n
  | Ast.Char c -> Char.code c
  | Ast.Var x -> List.assoc x env
  | Ast.Unop (Ast.Neg, a) -> -eval a
  | Ast.Unop (Ast.Not, a) -> of_bool (eval a = 0)
  | Ast.Unop (Ast.Bnot, a) -> lnot (eval a)
  | Ast.Binop (Ast.And, a, b) -> if eval a <> 0 then of_bool (eval b <> 0) else 0
  | Ast.Binop (Ast.Or, a, b) -> if eval a <> 0 then 1 else of_bool (eval b <> 0)
  | Ast.Binop (op, a, b) -> (
    let x = eval a in
    let y = eval b in
    match op with
    | Ast.Add -> x + y
    | Ast.Sub -> x - y
    | Ast.Mul -> x * y
    | Ast.Div -> if y = 0 then raise (Reference_error "division by zero") else x / y
    | Ast.Mod -> if y = 0 then raise (Reference_error "modulo by zero") else x mod y
    | Ast.Eq -> of_bool (x = y)
    | Ast.Ne -> of_bool (x <> y)
    | Ast.Lt -> of_bool (x < y)
    | Ast.Le -> of_bool (x <= y)
    | Ast.Gt -> of_bool (x > y)
    | Ast.Ge -> of_bool (x >= y)
    | Ast.Band -> x land y
    | Ast.Bor -> x lor y
    | Ast.Bxor -> x lxor y
    | Ast.Shl -> x lsl (y land 63)
    | Ast.Shr -> x asr (y land 63)
    | Ast.And | Ast.Or -> assert false)
  | Ast.Call ("t", [ a ]) ->
    let v = eval a in
    Buffer.add_string trace (Printf.sprintf "<%d>" v);
    v
  | _ -> invalid_arg "reference: not generated"

(* [e] evaluated four ways — as a [var] initialiser, as the right side of
   an assignment, as a stored word and as a call argument — each value
   printed after a space. *)
let differential_program values e =
  let open Ast in
  let call f args = Expr (Call (f, args)) in
  let show v = [ call "print_char" [ Char ' ' ]; call "print_int" [ v ] ] in
  let literal v = if v < 0 then Unop (Neg, Int (-v)) else Int v in
  let t =
    { name = "t";
      params = [ "v" ];
      body =
        [ call "print_char" [ Char '<' ]; call "print_int" [ Var "v" ]; call "print_char" [ Char '>' ];
          Return (Some (Var "v")) ] }
  in
  let main =
    { name = "main";
      params = [];
      body =
        List.map2 (fun x v -> Decl (x, literal v)) [ "a"; "b"; "c" ] values
        @ [ Decl ("p", Call ("malloc", [ Int 32 ])); Decl ("r", e) ]
        @ show (Var "r")
        @ [ Assign (Lvar "r", e) ]
        @ show (Var "r")
        @ [ Assign (Lindex (Var "p", Int 1), e) ]
        @ show (Index (Var "p", Int 1))
        @ show e }
  in
  { funcs = [ t; main ] }

let prop_expr_differential =
  let gen =
    QCheck.Gen.(pair (list_repeat 3 (oneofl [ 0; 1; -1; 5; -7; 63; 64; -64; 1 lsl 40 ])) gen_arith_expr)
  in
  QCheck.Test.make ~name:"expressions agree with a reference evaluator" ~count:500
    (QCheck.make
       ~print:(fun (values, e) ->
         Ast.to_string (differential_program values e))
       gen)
    (fun (values, e) ->
      let env = List.combine [ "a"; "b"; "c" ] values in
      let expected =
        let out = Buffer.create 64 in
        match
          for i = 1 to 4 do
            if i = 4 then Buffer.add_char out ' ';
            let v = reference env out e in
            if i < 4 then Buffer.add_char out ' ';
            Buffer.add_string out (string_of_int v)
          done
        with
        | () -> Ok (Buffer.contents out)
        | exception Reference_error msg -> Error msg
      in
      let source = Ast.to_string (differential_program values e) in
      let got =
        match run_freelist source with
        | { Process.outcome = Process.Exited 0; output; _ } -> Ok output
        | { Process.outcome = Process.Crashed (Dh_mem.Fault.Arith_trap Dh_mem.Fault.Division); _ } ->
          Error "division by zero"
        | { Process.outcome = Process.Crashed (Dh_mem.Fault.Arith_trap Dh_mem.Fault.Modulo); _ } ->
          Error "modulo by zero"
        | r -> Error ("outcome " ^ Process.outcome_to_string r.Process.outcome)
        | exception Interp.Runtime_error msg -> Error msg
      in
      if got <> expected then
        QCheck.Test.fail_reportf "expected %s, got %s"
          (match expected with Ok s -> s | Error m -> "error " ^ m)
          (match got with Ok s -> s | Error m -> "error " ^ m);
      true)

(* --- cost guards: minor words per step --- *)

(* The minor words one iteration of [body] allocates in a MiniC [for]
   loop on a DieHard heap with observability off: the difference between
   runs of 2,000 and 1,000 iterations, so the compile and the run's fixed
   costs cancel.  [Gc.minor_words] counts this domain's allocation
   only. *)
let words_per_iteration ?(functions = "") ?(prelude = "") body =
  let words n =
    let source =
      Printf.sprintf "%s fn main() { %s for (var i = 0; i < %d; i = i + 1) { %s } }" functions
        prelude n body
    in
    let program = Interp.program_of_source ~name:"cost" source in
    let config = Diehard.Config.v ~heap_size:(12 * 64 * 1024) ~seed:1 () in
    let alloc = Diehard.Heap.allocator (Diehard.Heap.create ~config (Mem.create ())) in
    let before = Gc.minor_words () in
    let r = Program.run program alloc in
    let words = Gc.minor_words () -. before in
    (match r.Process.outcome with
    | Process.Exited 0 -> ()
    | o -> Alcotest.failf "cost program: %s" (Process.outcome_to_string o));
    words
  in
  (words 2000 -. words 1000) /. 1000.

let test_loop_allocates_nothing () =
  Alcotest.(check (float 0.)) "minor words per iteration" 0.
    (words_per_iteration ~prelude:"var a = malloc(800); var s = 1;"
       "var j = i % 100; a[j] = s + j * 3; s = (s + a[j]) % 9973; a[7] = a[j] ^ i; \
        if (s < a[7]) { s = s + 1; } else { s = s - 1; } var t = a[j] < s && j != 3;")

(* A call allocates its frame: a three-field record and the slot array
   (one word per variable, plus a header).  [f] has one variable. *)
let call_words = 6.

let test_call_allocation () =
  Alcotest.(check (float 0.)) "minor words per call" call_words
    (words_per_iteration ~functions:"fn f(x) { return x + 1; }" ~prelude:"var s = 0;" "s = f(s);")

(* A MiniC [malloc]/[free] pair allocates what the allocator's own pair
   does (the [Some] box of the address), nothing of the interpreter's. *)
let test_malloc_allocation () =
  let config = Diehard.Config.v ~heap_size:(12 * 64 * 1024) ~seed:1 () in
  let alloc = Diehard.Heap.allocator (Diehard.Heap.create ~config (Mem.create ())) in
  let native =
    alloc.Allocator.free (Option.get (alloc.Allocator.malloc 16));
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      alloc.Allocator.free (Option.get (alloc.Allocator.malloc 16))
    done;
    (Gc.minor_words () -. before) /. 1000.
  in
  let minic = words_per_iteration "var p = malloc(16); free(p);" in
  if minic > native then
    Alcotest.failf "a MiniC malloc/free allocates %.2f words, the allocator's own %.2f" minic native

let suite =
  [
    Alcotest.test_case "lex basics" `Quick test_lex_basics;
    Alcotest.test_case "lex operators" `Quick test_lex_operators;
    Alcotest.test_case "lex strings" `Quick test_lex_string_escapes;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex positions" `Quick test_lex_positions;
    Alcotest.test_case "lex errors" `Quick test_lex_error;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse unary/index" `Quick test_parse_unary_and_index;
    Alcotest.test_case "parse statements" `Quick test_parse_statements;
    Alcotest.test_case "parse else-if" `Quick test_parse_else_if;
    Alcotest.test_case "parse error position" `Quick test_parse_error_position;
    Alcotest.test_case "parse bad lvalue" `Quick test_parse_bad_lvalue;
    Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
    Alcotest.test_case "string literal collection" `Quick test_string_literals_collected;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "comparisons/logic" `Quick test_comparisons_and_logic;
    Alcotest.test_case "short circuit" `Quick test_short_circuit;
    Alcotest.test_case "variables/scope" `Quick test_variables_and_scope;
    Alcotest.test_case "functions" `Quick test_functions;
    Alcotest.test_case "call scope isolation" `Quick test_functions_do_not_see_caller_locals;
    Alcotest.test_case "loops" `Quick test_loops;
    Alcotest.test_case "exit codes" `Quick test_exit_code;
    Alcotest.test_case "strings and io" `Quick test_strings_and_io;
    Alcotest.test_case "now intercepted" `Quick test_now_intercepted;
    Alcotest.test_case "heap roundtrip" `Quick test_heap_roundtrip;
    Alcotest.test_case "byte access" `Quick test_byte_access;
    Alcotest.test_case "calloc" `Quick test_calloc_zeroed;
    Alcotest.test_case "strcpy builtin" `Quick test_strcpy_builtin;
    Alcotest.test_case "gets" `Quick test_gets_reads_line;
    Alcotest.test_case "malloc failure -> NULL" `Quick test_malloc_failure_returns_null;
    Alcotest.test_case "wild write crashes" `Quick test_wild_write_crashes;
    Alcotest.test_case "null deref crashes" `Quick test_null_deref_crashes;
    Alcotest.test_case "overflow silent corruption" `Quick test_overflow_corrupts_neighbour_freelist;
    Alcotest.test_case "uninitialized stale read" `Quick test_uninitialized_read_stale_data;
    Alcotest.test_case "fail-stop aborts" `Quick test_fail_stop_policy_aborts_overflow;
    Alcotest.test_case "oblivious survives" `Quick test_oblivious_policy_survives_overflow;
    Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "arithmetic trap is a crash" `Quick test_arith_trap_is_a_crash;
    Alcotest.test_case "infinite loop timeout" `Quick test_infinite_loop_times_out;
    Alcotest.test_case "gc roots" `Quick test_gc_roots_from_interpreter;
    Alcotest.test_case "gc roots exclude exited blocks" `Quick test_gc_roots_exclude_exited_blocks;
    Alcotest.test_case "scoping corners" `Quick test_scoping_corners;
    QCheck_alcotest.to_alcotest prop_expr_roundtrip;
    QCheck_alcotest.to_alcotest prop_expr_differential;
    Alcotest.test_case "cost: loop allocates nothing" `Quick test_loop_allocates_nothing;
    Alcotest.test_case "cost: call allocation" `Quick test_call_allocation;
    Alcotest.test_case "cost: malloc allocation" `Quick test_malloc_allocation;
  ]
  @ libc_tests
