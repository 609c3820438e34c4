(** Recursive-descent parser for MiniC.

    The grammar is small enough that a hand parser with precedence
    climbing is clearer than a generated one (menhir is also not
    available in this environment; see DESIGN.md).

    Operator precedence, loosest to tightest:
    [||] < [&&] < [|] < [^] < [&] < [== !=] < [< <= > >=] < [<< >>]
    < [+ -] < [* / %] < unary [! ~ - *] < postfix (indexing, calls). *)

exception Syntax_error of string * int * int
(** [Syntax_error (message, line, col)]. *)

val parse_program : string -> Ast.program
(** Parse a full source file: a sequence of [fn name(params) { ... }]
    definitions.  Raises {!Syntax_error} or {!Lexer.Lex_error}. *)
