(* The MiniC differential corpus: every MiniC program in the repository,
   each run under freelist-lea, a DieHard heap, three voting DieHard
   replicas and the conservative collector, rendered as text.  The
   rendering records everything the interpreter can influence: output,
   outcome (fault kind and exact address), fuel burned, the simulated
   address space's access and TLB/cache counters, the allocator's
   counters and, with observability on, the audit site charged for
   every allocation.  [minic_corpus.expected] holds the rendering the
   interpreter must reproduce byte for byte; regenerate it with
   [dune exec test/corpus/gen_corpus.exe > test/corpus/minic_corpus.expected]. *)

module Mem = Dh_mem.Mem
module Process = Dh_mem.Process
module Allocator = Dh_alloc.Allocator
module Program = Dh_alloc.Program
module Stats = Dh_alloc.Stats
module Apps = Dh_workload.Apps
module Interp = Dh_lang.Interp
module Replicated = Diehard.Replicated

type case = { name : string; source : string; input : string; fuel : int option }

let case ?(input = "") ?fuel name source = { name; source; input; fuel }

(* Small programs: the interpreter snippets of test_lang, plus the scoping
   corners a slot-resolving interpreter could get wrong. *)
let snippets =
  [
    case "arith" "fn main() { print_int(2 + 3 * 4 - 6 / 2); print_int(17 % 5); print_int(-7); }";
    case "shifts" "fn main() { print_int(7 >> 1); print_int(1 << 3); print_int(-8 >> 1); print_int(1 << 10); }";
    case "bitwise" "fn main() { print_int(255 & 15); print_int(1 | 2); print_int(5 ^ 1); print_int(~5); }";
    case "compare" "fn main() { print_int(3 < 4); print_int(4 <= 4); print_int(5 > 6); print_int(5 >= 6); print_int(1 == 1); print_int(1 != 1); }";
    case "logic" "fn main() { print_int(1 && 0); print_int(1 || 0); print_int(!3); print_int(2 && 3); }";
    case "short-circuit" "fn boom() { var x = *0; return x; } fn main() { print_int(0 && boom()); print_int(1 || boom()); }";
    case "scope" "fn main() { var x = 1; { var x = 2; print_int(x); } print_int(x); x = x + 41; print_int(x); }";
    case "functions" "fn add(a, b) { return a + b; } fn f() { return; } fn main() { print_int(add(40, 2)); print_int(f()); }";
    case "fib" "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } fn main() { print_int(fib(15)); }";
    case "caller-locals" "fn f() { return hidden; } fn main() { var hidden = 1; print_int(f()); }";
    case "loops" "fn main() { var s = 0; for (var i = 1; i <= 10; i = i + 1) { s = s + i; } print_int(s); var i = 0; while (i < 3) { print_int(i); i = i + 1; } }";
    case "break-continue" "fn main() { for (var i = 0; i < 10; i = i + 1) { if (i == 3) { break; } print_int(i); } for (var i = 0; i < 5; i = i + 1) { if (i % 2) { continue; } print_int(i); } var j = 0; while (1) { j = j + 1; if (j < 4) { continue; } break; } print_int(j); }";
    case "exit" "fn main() { exit(7); print_int(1); }";
    case "main-returns" "fn main() { return 3; }";
    case "strings" {|fn main() { print_str("hello\n"); print_char('!'); print_int(strlen("hello")); print_int(strcmp("abc", "abc")); print_int(strcmp("a", "b") < 0); }|};
    case ~input:"ab" "getchar" "fn main() { print_int(getchar()); print_int(getchar()); print_int(getchar()); }";
    case "now" "fn main() { print_int(now()); }";
    case "heap" "fn main() { var p = malloc(64); p[0] = 42; p[1] = p[0] + 1; print_int(p[0]); print_int(p[1]); free(p); var q = malloc(16); *q = 7; *(q + 8) = 8; print_int(*q + *(q+8)); }";
    case "bytes" "fn main() { var p = malloc(8); store8(p, 65); store8(p + 1, 66); store8(p + 2, 0); print_str(p); print_int(load8(p + 1)); }";
    case "calloc" "fn main() { var p = calloc(64); print_int(p[0] + p[7]); }";
    case "realloc" "fn main() { var p = malloc(16); p[0] = 5; p[1] = 6; var q = realloc(p, 200); print_int(q[0] + q[1]); free(q); }";
    case "libc" {|fn main() { var p = malloc(32); strcpy(p, "copied"); print_str(p); var q = malloc(32); strncpy(q, p, 3); store8(q + 3, 0); print_str(q); memset(q, 'z', 2); print_str(q); memcpy(p, q, 2); print_str(p); }|};
    case ~input:"first\nsecond" "gets" "fn main() { var p = malloc(64); gets(p); print_str(p); print_char('|'); gets(p); print_str(p); print_int(gets(p)); }";
    case "malloc-null" "fn main() { var n = 0; for (var i = 0; i < 100000; i = i + 1) { var p = malloc(16384); if (p == 0) { print_int(n); exit(0); } n = n + 1; } }";
    case "wild-write" "fn main() { *1234567899 = 1; }";
    case "null-deref" "fn main() { print_int(*0); }";
    case "overflow-neighbour" "fn main() { var p = malloc(8); var q = malloc(8); q[0] = 111; p[3] = 222; print_int(q[0]); }";
    case "stale-read" "fn main() { var p = malloc(64); p[2] = 12345; free(p); var q = malloc(64); print_int(q[2]); }";
    case "strcpy-overflow" {|fn main() { var big = malloc(256); memset(big, 'A', 200); store8(big + 200, 0); var small = malloc(8); strcpy(small, big); print_int(strlen(small)); }|};
    case "unknown-var" "fn main() { print_int(nope); }";
    case "unknown-fn" "fn main() { nope(1); }";
    case "arity" "fn f(a) { return a; } fn main() { f(1, 2); }";
    case "builtin-arity" "fn main() { print_int(1, 2); }";
    case "div-zero" "fn main() { print_int(1 / 0); }";
    case "mod-zero" "fn main() { print_int(1 % 0); }";
    case "no-main" "fn notmain() { }";
    case "main-params" "fn main(a) { }";
    case ~fuel:10_000 "spin" "fn main() { while (1) { } }";
    case "gc-churn" "fn main() { var keep = malloc(64); keep[0] = 99; for (var i = 0; i < 3000; i = i + 1) { var tmp = malloc(64); tmp[0] = i; } print_int(keep[0]); }";
    case "dead-code-errors" "fn main() { if (0) { nope(1); print_int(missing); print_int(1, 2); } print_int(5); }";
    case "shadowing" "fn main() { var x = 1; { var x = x + 10; print_int(x); { var x = x * 2; print_int(x); } x = x + 1; print_int(x); } print_int(x); }";
    case "redeclare" "fn main() { var x = 1; var y = 2; var x = x + y; print_int(x); print_int(y); }";
    case "later-var-in-loop" "fn main() { var x = 1; var i = 0; while (i < 3) { print_int(x); var x = 10 + i; print_int(x); i = i + 1; } print_int(x); }";
    case "var-in-for-step" "fn main() { var k = 100; for (var i = 0; i < 4; var k = i) { print_int(k); print_char(' '); i = i + 1; } print_int(k); for (var j = 0; j < 3; var j = j + 1) { print_int(j); } }";
    case "for-step-self-ref" "fn main() { var n = 5; for (var i = 0; i < 3; var n = n + i) { print_int(n); i = i + 1; } print_int(n); }";
    case "param-shadow" "fn f(a, b) { var a = a + b; { var b = a * 2; print_int(b); } return a + b; } fn main() { print_int(f(3, 4)); }";
    case "duplicate-params" "fn f(a, a) { return a; } fn main() { print_int(f(1, 2)); }";
    case "recursion-frames" "fn sum(n) { if (n == 0) { return 0; } var rest = sum(n - 1); return n + rest; } fn main() { print_int(sum(50)); }";
    case "nested-loops" "fn main() { var t = 0; for (var i = 0; i < 5; i = i + 1) { var j = 0; while (j < i) { if (j == 3) { break; } t = t + i * j; j = j + 1; } for (var k = 0; k < 3; k = k + 1) { if (k == 1) { continue; } t = t + k; } } print_int(t); }";
    case "eval-order" "fn p(v) { print_int(v); return v; } fn main() { print_int(p(1) - p(2)); var a = malloc(32); a[p(0)] = p(3); print_int(a[0]); print_int(p(4) < p(5)); }";
  ]

(* Every binary operator with a variable, a constant (integer or
   character) or an expression on each side, as an expression, as the
   right side of a variable assignment and as a value stored at a
   variable and at a constant index, over operand values that include
   negatives and shift counts of 64 and more.  No divisor is zero here:
   the zero divisors have cases of their own below. *)
let operand_shapes =
  let ops =
    [ ("add", "+"); ("sub", "-"); ("mul", "*"); ("div", "/"); ("mod", "%"); ("eq", "==");
      ("ne", "!="); ("lt", "<"); ("le", "<="); ("gt", ">"); ("ge", ">="); ("and", "&&");
      ("or", "||"); ("band", "&"); ("bor", "|"); ("bxor", "^"); ("shl", "<<"); ("shr", ">>") ]
  and lefts = [ "a"; "13"; "'A'"; "(b + 1)" ]
  and rights = [ "b"; "3"; "'c'"; "(a - 2)" ] in
  List.map
    (fun (name, op) ->
      let body =
        String.concat " "
          (List.concat_map
             (fun l ->
               List.map
                 (fun r ->
                   let e = Printf.sprintf "%s %s %s" l op r in
                   Printf.sprintf
                     "print_int(%s); x = %s; print_char(','); print_int(x); p[j] = %s; \
                      print_char(','); print_int(p[j]); p[3] = %s; print_char(','); \
                      print_int(p[3]); print_char(' ');"
                     e e e e)
                 rights)
             lefts)
      in
      case ("shape-" ^ name)
        (Printf.sprintf
           "fn main() { var p = malloc(64); var j = 1; var x = 0; var as = malloc(32); var bs = \
            malloc(32); as[0] = -7; bs[0] = 2; as[1] = 100; bs[1] = -3; as[2] = 5; bs[2] = 70; \
            as[3] = 64; bs[3] = 1; for (var k = 0; k < 4; k = k + 1) { var a = as[k]; var b = \
            bs[k]; %s print_char('\\n'); } }"
           body))
    ops

(* The corners of the operand shapes: zero divisors reached through a
   variable, an expression and a constant, after the left side ran;
   shift counts of 64 and more and negative ones; word loads and stores
   at a variable, constant and computed index, including faulting ones;
   assignments to a variable of an enclosing block; [break] and
   [continue] in nested loops, and one that escapes its function. *)
let shape_corners =
  [
    case "div-zero-var" "fn show(v) { print_int(v); return v; } fn main() { var z = 0; var x = 9; print_int(x / 3); print_int(show(5) / z); }";
    case "mod-zero-var" "fn main() { var z = 0; var x = 9; x = x % 4; print_int(x); x = x % z; print_int(x); }";
    case "div-zero-expr" "fn main() { var z = 1; var x = 9; print_int(x / (z - 1)); }";
    case "mod-zero-const" "fn main() { var x = 9; var p = malloc(16); p[1] = x % 0; print_int(p[1]); }";
    case "div-zero-store" "fn main() { var z = 0; var p = malloc(16); var j = 1; p[j] = 4 / z; print_int(p[j]); }";
    case "shift-counts" "fn main() { var one = 1; var m = -5; var counts = malloc(64); counts[0] = 64; counts[1] = 65; counts[2] = 127; counts[3] = -1; counts[4] = -63; counts[5] = -64; counts[6] = 200; counts[7] = 0; for (var i = 0; i < 8; i = i + 1) { var n = counts[i]; print_int(one << n); print_char(' '); print_int(m >> n); print_char(' '); print_int(1 << n); print_char(' '); print_int(one << 64); print_char(' '); print_int(m >> 66); print_char(' '); print_int(n >> 1); print_char(' '); print_int((n + 64) << (n - 1)); print_char('\n'); } }";
    case "index-shapes" "fn main() { var a = malloc(80); var j = 0; for (j = 0; j < 10; j = j + 1) { a[j] = j * j; } var k = 3; print_int(a[j - 1]); print_int(a[3]); print_int(a[k]); print_int(a[k + 1]); print_int((a + 8)[k]); print_int((a + 16)[2]); a[k] = a[j - 1] + a[3]; a[4] = k; a[k + 2] = 'z'; print_int(a[3]); print_int(a[4]); print_int(a[5]); print_int(*(a + 24)); j = 2; a[j] = a[j] * a[j]; print_int(a[j]); }";
    case "index-null-load" "fn main() { var p = 0; var j = 3; print_int(1); print_int(p[j]); }";
    case "index-null-store" "fn main() { var p = 0; p[5] = 7; }";
    case "index-const-base" "fn main() { var j = 2; print_int(0[j]); }";
    case "index-wild-store" "fn main() { var a = malloc(8); var j = 100000000; a[j] = 5; }";
    case "index-negative" "fn main() { var a = malloc(64); var b = malloc(64); b[0] = 11; var j = -1; a[j] = 77; print_int(a[j]); print_int(b[0]); }";
    case "enclosing-assign" "fn main() { var x = 1; var y = 2; { var z = 3; x = x + 3; { var w = 4; x = x * w; y = y - z; { x = x % 7; y = y << 2; } } print_int(z); } print_int(x); print_int(y); for (var i = 0; i < 5; i = i + 1) { var t = i; x = x + t; if (t) { x = x ^ 1; } } print_int(x); }";
    case "nested-break-continue" "fn main() { var t = 0; for (var i = 0; i < 6; i = i + 1) { var a = i; if (i == 1) { continue; } var j = 0; while (j < 10) { var b = j; j = j + 1; if (b == 2) { continue; } if (b > a) { break; } t = t * 3 + b; } if (i == 4) { break; } for (var k = 0; k < 4; k = k + 1) { while (1) { if (k > 1) { break; } t = t + 1; break; } if (k == 2) { continue; } t = t + k; } print_int(t); print_char(' '); } var n = 0; while (n < 5) { n = n + 1; for (var m = 0; m < 3; m = m + 1) { if (m == n) { break; } if (m == 1) { continue; } print_int(m); } if (n == 3) { continue; } print_int(n); } }";
    case "loop-return" "fn find(p, n, v) { for (var i = 0; i < n; i = i + 1) { var j = 0; while (1) { if (j == i) { break; } j = j + 1; } if (p[i] == v) { return i; } } return -1; } fn main() { var p = malloc(40); for (var i = 0; i < 5; i = i + 1) { p[i] = 10 * i; } print_int(find(p, 5, 30)); print_int(find(p, 5, 31)); }";
    case "stray-continue" "fn f() { continue; } fn main() { for (var i = 0; i < 3; i = i + 1) { print_int(i); f(); print_int(99); } print_int(7); }";
    case "stray-break" "fn f(x) { if (x == 2) { break; } return x; } fn main() { var i = 0; while (1) { print_int(f(i)); i = i + 1; } print_int(i); }";
  ]

let apps =
  [
    case "espresso" Apps.espresso_source;
    case "cfrac" Apps.cfrac_source;
    case "lindsay" Apps.lindsay_source;
    case ~input:(Apps.squid_good_input ~requests:40) "squid-good" Apps.squid_source;
    case ~input:(Apps.squid_attack_input ~requests:40) "squid-attack" Apps.squid_source;
  ]

(* Split [text] into sections at lines satisfying [starts]; the text
   before the first such line is dropped. *)
let sections ~starts text =
  let flush acc cur = match cur with None -> acc | Some lines -> List.rev lines :: acc in
  let acc, cur =
    List.fold_left
      (fun (acc, cur) line ->
        if starts line then (flush acc cur, Some [ line ])
        else (acc, Option.map (List.cons line) cur))
      ([], None)
      (String.split_on_char '\n' text)
  in
  List.rev_map (String.concat "\n") (flush acc cur)

(* The generated statement programs of stmt_snippets.mc, one per
   [// ---] section. *)
let generated =
  List.mapi
    (fun i src -> case ~fuel:20_000 (Printf.sprintf "stmt-%02d" i) src)
    (sections ~starts:(String.equal "// ---") Stmt_snippets.text)

let cases = apps @ snippets @ operand_shapes @ shape_corners @ generated

(* --- running --- *)

type probe = { fuel : int; mem : Mem.stats; alloc : Stats.t }

(* Record, for every execution of [main] (one per replica), the fuel it
   burned and its address space's and allocator's counters. *)
let instrument (p : Program.t) probes =
  let main ctx =
    let fuel () = Option.value (Process.Fuel.remaining ctx.Program.fuel) ~default:0 in
    let before = fuel () in
    Fun.protect
      ~finally:(fun () ->
        let a = ctx.Program.alloc in
        probes :=
          { fuel = before - fuel (); mem = Mem.stats a.Allocator.mem; alloc = Stats.copy a.Allocator.stats }
          :: !probes)
      (fun () -> p.Program.main ctx)
  in
  { p with Program.main }

let render_probe buf { fuel; mem; alloc } =
  Printf.bprintf buf "  fuel=%d reads=%d writes=%d tlb=%d cache=%d mmaps=%d munmaps=%d\n" fuel
    mem.Mem.reads mem.Mem.writes mem.Mem.tlb_misses mem.Mem.cache_misses mem.Mem.mmaps
    mem.Mem.munmaps;
  Printf.bprintf buf "  mallocs=%d frees=%d failed=%d ignored=%d probes=%d collections=%d\n"
    alloc.Stats.mallocs alloc.Stats.frees alloc.Stats.failed_mallocs alloc.Stats.ignored_frees
    alloc.Stats.probes alloc.Stats.gc_collections

let heap_size = 12 * 64 * 1024

(* A stand-alone run on a fresh allocator, or three voting DieHard
   replicas. *)
type runtime = Single of string * (unit -> Allocator.t) | Replicated_3

let runtimes =
  [
    Single ("freelist-lea", fun () -> Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Mem.create ())));
    Single
      ( "diehard",
        fun () ->
          let config = Diehard.Config.v ~heap_size ~seed:7 () in
          Diehard.Heap.allocator (Diehard.Heap.create ~config (Mem.create ())) );
    Replicated_3;
    (* A 64 KiB arena makes the collector run, so the interpreter's root
       set decides what survives. *)
    Single ("gc", fun () -> Dh_alloc.Gc.allocator (Dh_alloc.Gc.create ~arena_size:65536 (Mem.create ())));
  ]

let outcome_string = function
  | Ok o -> Process.outcome_to_string o
  | Error (Interp.Runtime_error msg) -> "Runtime_error: " ^ msg
  | Error e -> "raised " ^ Printexc.to_string e

let verdict_string = function
  | Replicated.Agreed -> "agreed"
  | Replicated.Uninit_read_detected -> "uninit-read-detected"
  | Replicated.No_quorum -> "no-quorum"
  | Replicated.All_died -> "all-died"

let run_single (c : case) program alloc =
  match Program.run ~input:c.input ?fuel:c.fuel program alloc with
  | r -> (Ok r.Process.outcome, r.Process.output)
  | exception e -> (Error e, "")

let render_runtime buf (c : case) program rt =
  let probes = ref [] in
  let p = instrument program probes in
  (match rt with
  | Single (label, alloc) ->
    let outcome, output = run_single c p (alloc ()) in
    Printf.bprintf buf "[%s] %s\n  output=%S\n" label (outcome_string outcome) output
  | Replicated_3 -> (
    let config = Diehard.Config.v ~heap_size ~jobs:1 () in
    match
      Replicated.run ~config ~replicas:3 ~seed_pool:(Dh_rng.Seed.create ~master:11) ~input:c.input
        ?fuel:c.fuel p
    with
    | r ->
      Printf.bprintf buf "[replicated-3] %s barriers=%d\n  output=%S\n"
        (verdict_string r.Replicated.verdict) r.Replicated.barriers r.Replicated.output;
      List.iter
        (fun (rr : Replicated.replica_report) ->
          Printf.bprintf buf "  replica %d seed=%d %s%s\n" rr.Replicated.id rr.Replicated.seed
            (Process.outcome_to_string rr.Replicated.outcome)
            (match rr.Replicated.eliminated with
            | None -> ""
            | Some Replicated.Died -> " died"
            | Some (Replicated.Voted_out b) -> Printf.sprintf " voted-out@%d" b))
        r.Replicated.replicas
    | exception e -> Printf.bprintf buf "[replicated-3] %s\n" (outcome_string (Error e))));
  List.iter (render_probe buf) (List.rev !probes)

(* With observability on, tally the audit site of every allocation under
   freelist-lea; the output must not change. *)
let render_sites buf (c : case) program =
  let sites = ref [] in
  let alloc = Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Mem.create ())) in
  let malloc n =
    let name = Dh_obs.Audit.site_name (Dh_obs.Audit.current_site ()) in
    (match List.assoc_opt name !sites with
    | Some k -> incr k
    | None -> sites := (name, ref 1) :: !sites);
    alloc.Allocator.malloc n
  in
  let outcome, output =
    Dh_obs.Control.with_enabled true (fun () ->
        run_single c program { alloc with Allocator.malloc })
  in
  let _, plain = run_single c program (Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Mem.create ()))) in
  Printf.bprintf buf "[obs] %s same-output=%b\n" (outcome_string outcome) (String.equal output plain);
  List.iter (fun (name, k) -> Printf.bprintf buf "  site %s x%d\n" name !k) (List.rev !sites)

let render (c : case) =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "== %s\n" c.name;
  (match Interp.program_of_source ~name:c.name c.source with
  | program ->
    List.iter (render_runtime buf c program) runtimes;
    render_sites buf c program
  | exception e -> Printf.bprintf buf "parse failed: %s\n" (Printexc.to_string e));
  Buffer.contents buf

(* The recorded rendering of each case, keyed by name. *)
let expected =
  lazy
    (List.map
       (fun block ->
         let header = List.hd (String.split_on_char '\n' block) in
         (String.sub header 3 (String.length header - 3), String.trim block))
       (sections ~starts:(String.starts_with ~prefix:"== ") Golden.text))
