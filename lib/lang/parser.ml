open Lexer

exception Syntax_error of string * int * int

type state = { tokens : positioned array; mutable pos : int }

let current st = st.tokens.(st.pos)

let error st msg =
  let { token; line; col } = current st in
  raise
    (Syntax_error (Printf.sprintf "%s (found %s)" msg (token_to_string token), line, col))

let advance st = if st.pos < Array.length st.tokens - 1 then st.pos <- st.pos + 1

let eat st token =
  if (current st).token = token then advance st
  else error st (Printf.sprintf "expected %s" (token_to_string token))

let eat_ident st =
  match (current st).token with
  | IDENT x ->
    advance st;
    x
  | _ -> error st "expected identifier"

(* --- expressions: precedence climbing --- *)

let binop_of_token = function
  | PIPEPIPE -> Some (Ast.Or, 1)
  | AMPAMP -> Some (Ast.And, 2)
  | PIPE -> Some (Ast.Bor, 3)
  | CARET -> Some (Ast.Bxor, 4)
  | AMP -> Some (Ast.Band, 5)
  | EQEQ -> Some (Ast.Eq, 6)
  | NE -> Some (Ast.Ne, 6)
  | LT -> Some (Ast.Lt, 7)
  | LE -> Some (Ast.Le, 7)
  | GT -> Some (Ast.Gt, 7)
  | GE -> Some (Ast.Ge, 7)
  | SHL -> Some (Ast.Shl, 8)
  | SHR -> Some (Ast.Shr, 8)
  | PLUS -> Some (Ast.Add, 9)
  | MINUS -> Some (Ast.Sub, 9)
  | STAR -> Some (Ast.Mul, 10)
  | SLASH -> Some (Ast.Div, 10)
  | PERCENT -> Some (Ast.Mod, 10)
  | _ -> None

let rec parse_expression st = parse_binary st 1

and parse_binary st min_prec =
  let lhs = parse_unary st in
  let rec loop lhs =
    match binop_of_token (current st).token with
    | Some (op, prec) when prec >= min_prec ->
      advance st;
      let rhs = parse_binary st (prec + 1) in
      loop (Ast.Binop (op, lhs, rhs))
    | Some _ | None -> lhs
  in
  loop lhs

and parse_unary st =
  match (current st).token with
  | MINUS ->
    advance st;
    Ast.Unop (Ast.Neg, parse_unary st)
  | BANG ->
    advance st;
    Ast.Unop (Ast.Not, parse_unary st)
  | TILDE ->
    advance st;
    Ast.Unop (Ast.Bnot, parse_unary st)
  | STAR ->
    advance st;
    Ast.Unop (Ast.Deref, parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let base = parse_primary st in
  let rec loop e =
    match (current st).token with
    | LBRACKET ->
      advance st;
      let index = parse_expression st in
      eat st RBRACKET;
      loop (Ast.Index (e, index))
    | _ -> e
  in
  loop base

and parse_primary st =
  match (current st).token with
  | INT n ->
    advance st;
    Ast.Int n
  | CHAR c ->
    advance st;
    Ast.Char c
  | STRING s ->
    advance st;
    Ast.Str s
  | IDENT name ->
    advance st;
    if (current st).token = LPAREN then begin
      advance st;
      let args = parse_args st in
      eat st RPAREN;
      Ast.Call (name, args)
    end
    else Ast.Var name
  | LPAREN ->
    advance st;
    let e = parse_expression st in
    eat st RPAREN;
    e
  | _ -> error st "expected an expression"

and parse_args st =
  if (current st).token = RPAREN then []
  else begin
    let rec loop acc =
      let e = parse_expression st in
      if (current st).token = COMMA then begin
        advance st;
        loop (e :: acc)
      end
      else List.rev (e :: acc)
    in
    loop []
  end

(* --- statements --- *)

let lvalue_of_expr st = function
  | Ast.Var x -> Ast.Lvar x
  | Ast.Unop (Ast.Deref, e) -> Ast.Lderef e
  | Ast.Index (a, b) -> Ast.Lindex (a, b)
  | _ -> error st "left-hand side is not assignable"

(* A "simple" statement is one legal inside a for-header: a declaration,
   an assignment, or an expression — no trailing semicolon. *)
let rec parse_simple_stmt st =
  match (current st).token with
  | KW_VAR ->
    advance st;
    let x = eat_ident st in
    eat st EQ;
    let e = parse_expression st in
    Ast.Decl (x, e)
  | _ ->
    let e = parse_expression st in
    if (current st).token = EQ then begin
      advance st;
      let rhs = parse_expression st in
      Ast.Assign (lvalue_of_expr st e, rhs)
    end
    else Ast.Expr e

and parse_stmt st =
  match (current st).token with
  | KW_IF ->
    advance st;
    eat st LPAREN;
    let cond = parse_expression st in
    eat st RPAREN;
    let then_block = parse_block st in
    let else_block =
      if (current st).token = KW_ELSE then begin
        advance st;
        if (current st).token = KW_IF then [ parse_stmt st ] else parse_block st
      end
      else []
    in
    Ast.If (cond, then_block, else_block)
  | KW_WHILE ->
    advance st;
    eat st LPAREN;
    let cond = parse_expression st in
    eat st RPAREN;
    Ast.While (cond, parse_block st)
  | KW_FOR ->
    advance st;
    eat st LPAREN;
    let init =
      if (current st).token = SEMI then None else Some (parse_simple_stmt st)
    in
    eat st SEMI;
    let cond = if (current st).token = SEMI then None else Some (parse_expression st) in
    eat st SEMI;
    let step =
      if (current st).token = RPAREN then None else Some (parse_simple_stmt st)
    in
    eat st RPAREN;
    Ast.For (init, cond, step, parse_block st)
  | KW_RETURN ->
    advance st;
    if (current st).token = SEMI then begin
      advance st;
      Ast.Return None
    end
    else begin
      let e = parse_expression st in
      eat st SEMI;
      Ast.Return (Some e)
    end
  | KW_BREAK ->
    advance st;
    eat st SEMI;
    Ast.Break
  | KW_CONTINUE ->
    advance st;
    eat st SEMI;
    Ast.Continue
  | LBRACE -> Ast.Block (parse_block st)
  | _ ->
    let s = parse_simple_stmt st in
    eat st SEMI;
    s

and parse_block st =
  eat st LBRACE;
  let rec loop acc =
    if (current st).token = RBRACE then begin
      advance st;
      List.rev acc
    end
    else loop (parse_stmt st :: acc)
  in
  loop []

let parse_func st =
  eat st KW_FN;
  let name = eat_ident st in
  eat st LPAREN;
  let params =
    if (current st).token = RPAREN then []
    else begin
      let rec loop acc =
        let p = eat_ident st in
        if (current st).token = COMMA then begin
          advance st;
          loop (p :: acc)
        end
        else List.rev (p :: acc)
      in
      loop []
    end
  in
  eat st RPAREN;
  let body = parse_block st in
  { Ast.name; params; body }

let parse_program src =
  let st = { tokens = tokenize src; pos = 0 } in
  let rec loop acc =
    if (current st).token = EOF then { Ast.funcs = List.rev acc }
    else loop (parse_func st :: acc)
  in
  loop []
