(** Static checking for MiniC programs.

    MiniC is deliberately unsafe about {e memory}, but there is no value
    in letting programs die at runtime on plain name errors — those are
    bugs in the experiment's input, not simulated memory errors (see
    {!Interp.Runtime_error}).  This pass catches them before execution:

    - calls to unknown functions (neither user-defined nor builtin);
    - wrong arity at every call site (user functions and builtins);
    - uses of variables that are not in scope (block-scoped [var],
      function parameters; functions do not see their callers' locals);
    - duplicate function definitions and duplicate parameter names;
    - [break]/[continue] outside any loop;
    - a missing or parameterised [main].

    The checker is purely syntactic/scoping — it does not try to prove
    memory safety (that is the whole point of the paper). *)

type diagnostic = {
  where : string;  (** Enclosing function name. *)
  message : string;
}

val check : Ast.program -> diagnostic list
(** All diagnostics, in program order.  Empty = the program will not
    raise {!Interp.Runtime_error} for name/arity reasons (division by
    zero remains a runtime matter). *)

val check_source : string -> (Ast.program, string list) result
(** Parse then check; [Error] carries formatted syntax or semantic
    diagnostics. *)

val builtin_arity : string -> int option
(** Arity of an interpreter builtin, if [name] is one.  This is the only
    table of builtin arities: the interpreter resolves every callsite
    against it, so the checker and the runtime cannot drift apart. *)
