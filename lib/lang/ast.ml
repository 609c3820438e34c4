type unop = Neg | Not | Bnot | Deref

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Band | Bor | Bxor | Shl | Shr

type expr =
  | Int of int
  | Char of char
  | Str of string
  | Var of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Index of expr * expr
  | Call of string * expr list

type lvalue = Lvar of string | Lderef of expr | Lindex of expr * expr

type stmt =
  | Decl of string * expr
  | Assign of lvalue * expr
  | If of expr * block * block
  | While of expr * block
  | For of stmt option * expr option * stmt option * block
  | Return of expr option
  | Break
  | Continue
  | Expr of expr
  | Block of block

and block = stmt list

type func = { name : string; params : string list; body : block }
type program = { funcs : func list }

let string_literals program =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let note s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.replace seen s ();
      acc := s :: !acc
    end
  in
  let rec expr = function
    | Int _ | Char _ | Var _ -> ()
    | Str s -> note s
    | Unop (_, e) -> expr e
    | Binop (_, a, b) ->
      expr a;
      expr b
    | Index (a, b) ->
      expr a;
      expr b
    | Call (_, args) -> List.iter expr args
  in
  let lvalue = function
    | Lvar _ -> ()
    | Lderef e -> expr e
    | Lindex (a, b) ->
      expr a;
      expr b
  in
  let rec stmt = function
    | Decl (_, e) | Expr e -> expr e
    | Assign (lv, e) ->
      lvalue lv;
      expr e
    | If (c, t, f) ->
      expr c;
      List.iter stmt t;
      List.iter stmt f
    | While (c, b) ->
      expr c;
      List.iter stmt b
    | For (init, cond, step, b) ->
      Option.iter stmt init;
      Option.iter expr cond;
      Option.iter stmt step;
      List.iter stmt b
    | Return e -> Option.iter expr e
    | Break | Continue -> ()
    | Block b -> List.iter stmt b
  in
  List.iter (fun f -> List.iter stmt f.body) program.funcs;
  List.rev !acc

(* --- pretty printing (emits parseable concrete syntax) --- *)

let unop_string = function Neg -> "-" | Not -> "!" | Bnot -> "~" | Deref -> "*"

let binop_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "&&" | Or -> "||"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\000' -> Buffer.add_string buf "\\0"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec pp_expr ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Char c -> Format.fprintf ppf "'%s'" (escape_string (String.make 1 c))
  | Str s -> Format.fprintf ppf "\"%s\"" (escape_string s)
  | Var x -> Format.pp_print_string ppf x
  | Unop (op, e) -> Format.fprintf ppf "%s(%a)" (unop_string op) pp_expr e
  | Binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_string op) pp_expr b
  | Index (a, b) -> Format.fprintf ppf "%a[%a]" pp_atom a pp_expr b
  | Call (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_expr)
      args

and pp_atom ppf e =
  match e with
  | Int _ | Char _ | Str _ | Var _ | Call _ | Index _ -> pp_expr ppf e
  | Unop _ | Binop _ -> Format.fprintf ppf "(%a)" pp_expr e

let pp_lvalue ppf = function
  | Lvar x -> Format.pp_print_string ppf x
  | Lderef e -> Format.fprintf ppf "*%a" pp_atom e
  | Lindex (a, b) -> Format.fprintf ppf "%a[%a]" pp_atom a pp_expr b

let rec pp_stmt ppf = function
  | Decl (x, e) -> Format.fprintf ppf "@[<h>var %s = %a;@]" x pp_expr e
  | Assign (lv, e) -> Format.fprintf ppf "@[<h>%a = %a;@]" pp_lvalue lv pp_expr e
  | If (c, t, []) ->
    Format.fprintf ppf "@[<v 2>if (%a) {@,%a@]@,}" pp_expr c pp_block t
  | If (c, t, f) ->
    Format.fprintf ppf "@[<v 2>if (%a) {@,%a@]@,@[<v 2>} else {@,%a@]@,}" pp_expr c
      pp_block t pp_block f
  | While (c, b) -> Format.fprintf ppf "@[<v 2>while (%a) {@,%a@]@,}" pp_expr c pp_block b
  | For (init, cond, step, b) ->
    let pp_opt_stmt ppf = function
      | Some s -> pp_inline_stmt ppf s
      | None -> ()
    in
    let pp_opt_expr ppf = function Some e -> pp_expr ppf e | None -> () in
    Format.fprintf ppf "@[<v 2>for (%a; %a; %a) {@,%a@]@,}" pp_opt_stmt init pp_opt_expr
      cond pp_opt_stmt step pp_block b
  | Return None -> Format.pp_print_string ppf "return;"
  | Return (Some e) -> Format.fprintf ppf "@[<h>return %a;@]" pp_expr e
  | Break -> Format.pp_print_string ppf "break;"
  | Continue -> Format.pp_print_string ppf "continue;"
  | Expr e -> Format.fprintf ppf "@[<h>%a;@]" pp_expr e
  | Block b -> Format.fprintf ppf "@[<v 2>{@,%a@]@,}" pp_block b

(* statements inside for-headers are printed without the trailing ';' *)
and pp_inline_stmt ppf s =
  let str = Format.asprintf "%a" pp_stmt s in
  let str =
    if String.length str > 0 && str.[String.length str - 1] = ';' then
      String.sub str 0 (String.length str - 1)
    else str
  in
  Format.pp_print_string ppf str

and pp_block ppf b =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt ppf b

let pp_func ppf f =
  Format.fprintf ppf "@[<v 2>fn %s(%a) {@,%a@]@,}" f.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_string)
    f.params pp_block f.body

let pp_program ppf p =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,@,")
    pp_func ppf p.funcs

let to_string p = Format.asprintf "@[<v>%a@]@." pp_program p
