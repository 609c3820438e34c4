(** Abstract syntax of MiniC.

    MiniC is the small unsafe C-like language this repository uses to
    write the buggy "applications" of the paper's experiments.  It is a
    word machine: every value is a 63-bit integer, and pointers are plain
    integers into the simulated address space, so all of C's memory
    errors — overflows, dangling pointers, double frees, uninitialized
    reads, wild writes — can be expressed (and committed) naturally.

    Words are 8 bytes.  [e1\[e2\]] indexes by {e words} (address
    [e1 + 8*e2]); [*e] loads a word; the [load8]/[store8] builtins give
    byte access.  Strings are NUL-terminated byte arrays allocated from
    the program's heap at startup. *)

type unop =
  | Neg  (** [-e] *)
  | Not  (** [!e], logical *)
  | Bnot  (** [~e], bitwise *)
  | Deref  (** [*e], word load *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or  (** short-circuit logical *)
  | Band | Bor | Bxor | Shl | Shr

type expr =
  | Int of int
  | Char of char
  | Str of string  (** evaluates to the literal's heap address *)
  | Var of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Index of expr * expr  (** [e1\[e2\]]: word load at [e1 + 8*e2] *)
  | Call of string * expr list  (** user function or builtin *)

type lvalue =
  | Lvar of string
  | Lderef of expr  (** [*e = ...] *)
  | Lindex of expr * expr  (** [e1\[e2\] = ...] *)

type stmt =
  | Decl of string * expr  (** [var x = e;] *)
  | Assign of lvalue * expr
  | If of expr * block * block
  | While of expr * block
  | For of stmt option * expr option * stmt option * block
  | Return of expr option
  | Break
  | Continue
  | Expr of expr  (** expression statement (calls) *)
  | Block of block

and block = stmt list

type func = { name : string; params : string list; body : block }

type program = { funcs : func list }

val string_literals : program -> string list
(** Every distinct string literal, in first-appearance order — the
    interpreter allocates these at startup. *)

val to_string : program -> string
(** Pretty-print back to concrete MiniC syntax (parseable). *)
