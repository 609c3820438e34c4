(** The MiniC interpreter.

    Executes a parsed program against a {!Dh_alloc.Program.context}: all
    heap traffic goes through the context's allocator and access policy,
    so the same program runs unchanged under the freelist baseline, the
    conservative GC, DieHard, a fail-stop checker or a failure-oblivious
    shield — the paper's interposition, in simulation.

    {b Compile per run.}  Each run first allocates the string literals
    (in first-appearance order), then compiles the whole program once into
    OCaml closures over that run's context: every variable is resolved to
    a slot in a per-call [int array] frame and every callsite to a builtin
    or to a user function.  The closures are shaped to make few indirect
    calls per step: a variable or a constant used as an operand of a
    binary operator, an index or a word store is read inline by the
    closure that uses it ([i < n], [j + 1], [a\[j\]] are one closure
    each), [x = a op b] over such operands computes and stores in the
    statement's own closure, a block runs its statements from one closure,
    and a loop installs a [break] or [continue] handler only when its body
    has one.  Parsing ({!program_of_source}) does no
    compilation, so a packaged program can be run any number of times,
    under any context.  Execution starts at [main()].  A name, arity or
    missing-[main] error is raised as {!Runtime_error} only when execution
    reaches it — a bad call in code that never runs is harmless — with an
    arity error raised after the call's arguments were evaluated;
    {!check_source} reports all of them without running.

    {b Fuel contract.}  Fuel burns at exactly three points: once when a
    statement starts, once per [while]/[for] iteration before its
    condition, and once per user-function call after its arguments were
    evaluated.  Builtins and expressions burn none.  The fuel a run burns
    is therefore a pure function of the program's control flow, which is
    what [interp.steps] in the repository benchmark counts.

    Variables live outside the simulated heap (MiniC models heap errors,
    not stack smashing — the paper's DieHard likewise "does not prevent
    safety errors based on stack corruption", §9).  If the allocator is
    garbage-collected, its roots are the string literals and the
    variables in scope in every active call, scanned conservatively; a
    variable of a block that has exited is not a root.

    {b Builtins}, one table giving each name its arity and its
    implementation: [malloc(n)], [calloc(n)], [realloc(p,n)], [free(p)],
    [print_int(v)], [print_str(p)], [print_char(c)], [getchar()] (next
    input byte or -1), [gets(p)] (reads an input line with {e no} bounds
    check — the classic overflow vector), [strlen(s)], [strcpy(d,s)], [strncpy(d,s,n)],
    [strcmp(a,b)], [memcpy(d,s,n)], [memset(d,c,n)], [load8(p)],
    [store8(p,v)], [now()] (the intercepted clock, §5.3: always 0, so every
    run and replica sees the same time), [exit(code)].

    With [libc = Bounded], [strcpy]/[strncpy]/[memcpy]/[memset] are
    DieHard's bounded replacements (§4.4), the repository's only ones:
    the write is limited to the space remaining in the destination's
    live object ([strncpy]'s [n] is cut to it too), and a destination
    outside any live object (a freed one, say) gets the unchecked
    copy. *)

type libc =
  | Unchecked  (** Ordinary C semantics: the copy trusts its arguments. *)
  | Bounded  (** DieHard's replacement library functions (§4.4). *)

exception Runtime_error of string
(** A MiniC-level error in the program text, not in its run: unknown
    variable or function, wrong arity, or missing [main].  Escapes
    {!Dh_mem.Process.run}, and so a replicated run; a program
    {!check_source} accepts never raises it.  The CLI checks every MiniC
    program before it builds an address space, so it rejects such a
    program in every subcommand (exit 2) and never sees this exception
    escape a run.  An integer division or modulo by zero is the simulated
    machine's [Dh_mem.Fault.Arith_trap] instead: the process crashes, so
    a replica that divides by an uninitialized byte its random fill made
    zero is dropped and the rest vote. *)

val program_of_source : ?libc:libc -> name:string -> string -> Dh_alloc.Program.t
(** Parse MiniC source text and package it as a runnable
    {!Dh_alloc.Program.t}; a run executes [main()] to completion within
    its context.  [libc] defaults to [Unchecked].  [name] also prefixes
    the audit allocation-site labels the interpreter interns for
    [malloc]/[calloc]/[realloc] callsites — ["minic:<name>:malloc#2"] —
    while the allocator's address space has obs on.  Each AST callsite
    gets its own site, interned when it first executes and numbered in
    first-execution order. *)

(** {1 Static checking}

    The compiler is the checker: {!check_source} compiles the program as
    a run would, against a throwaway heap, without allocating its
    literals or running a statement, and returns what the compile
    reported.  A program it accepts resolves every name, so it will not
    raise {!Runtime_error}.  MiniC stays deliberately unsafe about
    memory: the check proves nothing about it. *)

val check_source : string -> (Ast.program, string list) result
(** Parse, then check.  [Error] carries the ["line:col: ..."] lexical or
    syntax error, or every diagnostic, ["in <function>: <message>"], in
    program order (["in <toplevel>: ..."] for definitions): an unknown
    variable or function; a wrong arity at a callsite, user function or
    builtin; a duplicate function or parameter; a function that shadows a
    builtin; [break] or [continue] outside a loop; a missing or
    parameterised [main]. *)
