module Allocator = Dh_alloc.Allocator
module Policy = Dh_alloc.Policy
module Program = Dh_alloc.Program
module Process = Dh_mem.Process

type libc = Unchecked | Bounded

exception Runtime_error of string

let err fmt = Format.kasprintf (fun msg -> raise (Runtime_error msg)) fmt

(* Control-flow signals. *)
exception Return_signal of int
exception Break_signal
exception Continue_signal

(* One call's variables.  The compiler numbers a function's block-scoped
   variables so that the ones in scope at any point are exactly
   [slots.(0 .. top-1)]: a block's variables follow those of the blocks
   around it, and leaving a block lowers [top] back to where it was. *)
type frame = { slots : int array; mutable top : int }

(* Audit provenance for MiniC allocation callsites.  The AST carries no
   positions, but every [Call] node owns a physically distinct argument
   list, so physical identity of the args list identifies the callsite.
   Sites are named in discovery (first-execution) order, which is
   deterministic for a deterministic program. *)
module Site_tbl = Hashtbl.Make (struct
  type t = Ast.expr list

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type state = {
  libc : libc;
  ctx : Program.context;
  (* The frames of the active calls, innermost first: with the literals,
     the GC root set. *)
  mutable frames : frame list;
  (* Addresses of the startup-allocated string literals. *)
  literals : (string, int) Hashtbl.t;
  mutable input_pos : int;
  prog_name : string;
  call_sites : int Site_tbl.t;
}

(* Bracket an allocating builtin in its callsite's ambient audit site.
   Interning happens only while observability is on (ids are stable
   within a run; an obs-off run pays one atomic load and no table). *)
let with_alloc_site st ~builtin args f =
  if not (Dh_obs.Control.enabled ()) then f ()
  else begin
    let site =
      match Site_tbl.find_opt st.call_sites args with
      | Some s -> s
      | None ->
        let s =
          Dh_obs.Audit.site
            (Printf.sprintf "minic:%s:%s#%d" st.prog_name builtin
               (Site_tbl.length st.call_sites))
        in
        Site_tbl.add st.call_sites args s;
        s
    in
    Dh_obs.Audit.with_site site f
  end

(* --- heap access helpers --- *)

let load8 st addr = Policy.load8 st.ctx.Program.policy addr
let store8 st addr v = Policy.store8 st.ctx.Program.policy addr v

let cstrlen st addr =
  let rec go n = if load8 st (addr + n) = 0 then n else go (n + 1) in
  go 0

let read_cstring st addr =
  let len = cstrlen st addr in
  String.init len (fun i -> Char.chr (load8 st (addr + i) land 0xFF))

let write_cstring st addr s =
  String.iteri (fun i c -> store8 st (addr + i) (Char.code c)) s;
  store8 st (addr + String.length s) 0

(* Space from [ptr] to the end of its live object — the §4.4 bound. *)
let available st ptr =
  match st.ctx.Program.alloc.Allocator.find_object ptr with
  | Some { Allocator.base; size; allocated } when allocated -> Some (base + size - ptr)
  | Some _ | None -> None

let bounded_limit st dst n =
  match st.libc with
  | Unchecked -> n
  | Bounded -> (
    match available st dst with None -> n | Some room -> min n room)

(* --- builtins --- *)

let builtin_strcpy st dst src =
  let rec copy i =
    let c = load8 st (src + i) in
    store8 st (dst + i) c;
    if c <> 0 then copy (i + 1)
  in
  match st.libc with
  | Unchecked -> copy 0
  | Bounded -> (
    match available st dst with
    | None -> copy 0
    | Some room when room <= 0 -> ()
    | Some room ->
      let rec go i =
        if i = room - 1 then store8 st (dst + i) 0
        else begin
          let c = load8 st (src + i) in
          store8 st (dst + i) c;
          if c <> 0 then go (i + 1)
        end
      in
      go 0)

let builtin_strncpy st dst src n =
  let n = bounded_limit st dst n in
  let rec go i =
    if i < n then begin
      let c = load8 st (src + i) in
      store8 st (dst + i) c;
      if c = 0 then for j = i + 1 to n - 1 do store8 st (dst + j) 0 done else go (i + 1)
    end
  in
  go 0

let builtin_strcmp st a b =
  let rec go i =
    let ca = load8 st (a + i) and cb = load8 st (b + i) in
    if ca <> cb then compare ca cb else if ca = 0 then 0 else go (i + 1)
  in
  go 0

let builtin_gets st dst =
  (* Read one input line with no bounds checking whatsoever. *)
  let input = st.ctx.Program.input in
  let start = st.input_pos in
  let len = String.length input in
  let rec line_end i = if i >= len || input.[i] = '\n' then i else line_end (i + 1) in
  let stop = line_end start in
  for i = start to stop - 1 do
    store8 st (dst + (i - start)) (Char.code input.[i])
  done;
  store8 st (dst + (stop - start)) 0;
  st.input_pos <- (if stop < len then stop + 1 else len);
  if start >= len && stop = len then 0 else dst

let builtin_getchar st =
  let input = st.ctx.Program.input in
  if st.input_pos >= String.length input then -1
  else begin
    st.input_pos <- st.input_pos + 1;
    Char.code input.[st.input_pos - 1]
  end

(* Every builtin takes three arguments; those of lower arity (the
   {!Check.builtin_arity} table) ignore the rest, which are 0. *)
let builtin st name args : int -> int -> int -> int =
  let alloc = st.ctx.Program.alloc and out = st.ctx.Program.out in
  let allocate f = match with_alloc_site st ~builtin:name args f with Some p -> p | None -> 0 in
  match name with
  | "malloc" -> fun n _ _ -> allocate (fun () -> alloc.Allocator.malloc n)
  | "calloc" ->
    fun n _ _ ->
      (* zero-fill through the access policy so a fail-stop policy's
         initialization tracking sees the writes *)
      let p = allocate (fun () -> alloc.Allocator.malloc n) in
      if p <> 0 then for i = 0 to n - 1 do store8 st (p + i) 0 done;
      p
  | "realloc" -> fun p n _ -> allocate (fun () -> Allocator.realloc alloc p n)
  | "free" -> fun p _ _ -> alloc.Allocator.free p; 0
  | "print_int" -> fun v _ _ -> Process.Out.print_int out v; 0
  | "print_char" -> fun v _ _ -> Process.Out.print_char out (Char.chr (v land 0xFF)); 0
  | "print_str" -> fun p _ _ -> Process.Out.print_string out (read_cstring st p); 0
  | "getchar" -> fun _ _ _ -> builtin_getchar st
  | "gets" -> fun p _ _ -> builtin_gets st p
  | "strlen" -> fun p _ _ -> cstrlen st p
  | "strcpy" -> fun d s _ -> builtin_strcpy st d s; d
  | "strncpy" -> fun d s n -> builtin_strncpy st d s n; d
  | "strcmp" -> fun a b _ -> builtin_strcmp st a b
  | "memcpy" ->
    fun d s n ->
      for i = 0 to bounded_limit st d n - 1 do store8 st (d + i) (load8 st (s + i)) done;
      d
  | "memset" ->
    fun d c n ->
      for i = 0 to bounded_limit st d n - 1 do store8 st (d + i) c done;
      d
  | "load8" -> fun p _ _ -> load8 st p
  | "store8" -> fun p v _ -> store8 st p v; 0
  | "now" -> fun _ _ _ -> st.ctx.Program.now
  | "exit" -> fun code _ _ -> raise (Process.Exit_program code)
  | _ -> fun _ _ _ -> err "internal: builtin %s has no implementation" name

(* --- compilation ---

   [run] compiles the program once, against the run's context, into
   closures over a frame: every variable is resolved to a frame slot and
   every callsite to a builtin or a user function before the first
   statement runs. *)

type code = frame -> int

(* A user function.  Calls may be compiled before the callee's body, so
   the body and the frame size are filled in afterwards. *)
type func = {
  arity : int;
  param_slots : int array;  (* a repeated parameter name reuses its slot *)
  params_in_scope : int;
  mutable size : int;
  mutable body : frame -> unit;
}

(* A compile-time scope: the variables declared in it so far, in order,
   numbered from [base]. *)
type scope = { base : int; mutable names : (string * int) list }

type env = {
  st : state;
  funcs : (string, func) Hashtbl.t;
  mutable scopes : scope list;  (* innermost first; empty between functions *)
  mutable size : int;  (* slots the current function's frame needs *)
}

let next_slot sc = sc.base + List.length sc.names

let push_scope env =
  let base = match env.scopes with sc :: _ -> next_slot sc | [] -> 0 in
  let sc = { base; names = [] } in
  env.scopes <- sc :: env.scopes;
  sc

let pop_scope env = env.scopes <- List.tl env.scopes

(* The slot of [x] in the innermost scope, and whether it is new there. *)
let declare env x =
  let sc = List.hd env.scopes in
  match List.assoc_opt x sc.names with
  | Some s -> (s, false)
  | None ->
    let s = next_slot sc in
    sc.names <- (x, s) :: sc.names;
    env.size <- max env.size (s + 1);
    (s, true)

let resolve env x = List.find_map (fun sc -> List.assoc_opt x sc.names) env.scopes

let of_bool b = if b then 1 else 0

let new_frame (f : func) = { slots = Array.make f.size 0; top = f.params_in_scope }

(* Run [f]'s body on [callee], a frame whose parameters are set. *)
let invoke st (f : func) callee =
  Process.Fuel.burn st.ctx.Program.fuel;
  let saved = st.frames in
  st.frames <- callee :: saved;
  let result = match f.body callee with () -> 0 | exception Return_signal v -> v in
  st.frames <- saved;
  result

(* Frame accesses are in bounds by construction: every frame is sized for
   the slots its function's code mentions. *)
let rec expr env (e : Ast.expr) : code =
  let policy = env.st.ctx.Program.policy in
  match e with
  | Ast.Int n -> Fun.const n
  | Ast.Char c -> Fun.const (Char.code c)
  | Ast.Str s -> (
    match Hashtbl.find_opt env.st.literals s with
    | Some addr -> fun _ -> addr
    | None -> fun _ -> err "internal: unallocated string literal %S" s)
  | Ast.Var x -> (
    match resolve env x with
    | Some s -> fun fr -> Array.unsafe_get fr.slots s
    | None -> fun _ -> err "unknown variable %s" x)
  | Ast.Unop (op, a) -> (
    let a = expr env a in
    match op with
    | Ast.Neg -> fun fr -> -a fr
    | Ast.Not -> fun fr -> of_bool (a fr = 0)
    | Ast.Bnot -> fun fr -> lnot (a fr)
    | Ast.Deref -> fun fr -> Policy.load policy (a fr))
  | Ast.Binop (op, a, b) -> binop op (expr env a) (expr env b)
  | Ast.Index (a, i) ->
    let a = expr env a and i = expr env i in
    fun fr -> let base = a fr in Policy.load policy (base + (8 * i fr))
  | Ast.Call (name, args) -> call env name args

(* Operands evaluate left to right: [let x = a fr in ... b fr]. *)
and binop op (a : code) (b : code) : code =
  match op with
  | Ast.And -> fun fr -> if a fr <> 0 then of_bool (b fr <> 0) else 0
  | Ast.Or -> fun fr -> if a fr <> 0 then 1 else of_bool (b fr <> 0)
  | Ast.Add -> fun fr -> let x = a fr in x + b fr
  | Ast.Sub -> fun fr -> let x = a fr in x - b fr
  | Ast.Mul -> fun fr -> let x = a fr in x * b fr
  | Ast.Div -> fun fr -> let x = a fr in let y = b fr in if y = 0 then err "division by zero" else x / y
  | Ast.Mod -> fun fr -> let x = a fr in let y = b fr in if y = 0 then err "modulo by zero" else x mod y
  | Ast.Eq -> fun fr -> let x = a fr in of_bool (x = b fr)
  | Ast.Ne -> fun fr -> let x = a fr in of_bool (x <> b fr)
  | Ast.Lt -> fun fr -> let x = a fr in of_bool (x < b fr)
  | Ast.Le -> fun fr -> let x = a fr in of_bool (x <= b fr)
  | Ast.Gt -> fun fr -> let x = a fr in of_bool (x > b fr)
  | Ast.Ge -> fun fr -> let x = a fr in of_bool (x >= b fr)
  | Ast.Band -> fun fr -> let x = a fr in x land b fr
  | Ast.Bor -> fun fr -> let x = a fr in x lor b fr
  | Ast.Bxor -> fun fr -> let x = a fr in x lxor b fr
  | Ast.Shl -> fun fr -> let x = a fr in x lsl (b fr land 63)
  | Ast.Shr -> fun fr -> let x = a fr in x asr (b fr land 63)

(* Resolve a callsite once.  Builtins win over user functions of the same
   name.  Name and arity errors are raised only if the call is reached —
   an arity error after the arguments were evaluated. *)
and call env name args : code =
  let codes = List.map (expr env) args and got = List.length args in
  let arity_error n fr =
    List.iter (fun a -> ignore (a fr)) codes;
    err "%s expects %d argument(s), got %d" name n got
  in
  match (Check.builtin_arity name, Hashtbl.find_opt env.funcs name) with
  | Some n, _ when n <> got -> arity_error n
  | Some _, _ -> (
    let f = builtin env.st name args in
    match codes with
    | [] -> fun _ -> f 0 0 0
    | [ a ] -> fun fr -> f (a fr) 0 0
    | [ a; b ] -> fun fr -> let x = a fr in f x (b fr) 0
    | [ a; b; c ] -> fun fr -> let x = a fr in let y = b fr in f x y (c fr)
    | _ -> assert false (* no builtin takes more than three *))
  | None, None -> fun _ -> err "unknown function %s" name
  | None, Some f when f.arity <> got -> arity_error f.arity
  | None, Some f ->
    let st = env.st and codes = Array.of_list codes in
    fun fr ->
      let callee = new_frame f in
      for i = 0 to Array.length codes - 1 do
        Array.unsafe_set callee.slots f.param_slots.(i) (codes.(i) fr)
      done;
      invoke st f callee

(* Every statement burns one unit of fuel before it runs, and every loop
   one more per iteration, before its condition. *)
and stmt env (s : Ast.stmt) : frame -> unit =
  let fuel = env.st.ctx.Program.fuel and policy = env.st.ctx.Program.policy in
  let burn () = Process.Fuel.burn fuel in
  match s with
  | Ast.Decl (x, e) -> (
    let e = expr env e in
    match declare env x with
    | s, false -> fun fr -> burn (); Array.unsafe_set fr.slots s (e fr)
    | s, true -> fun fr -> burn (); Array.unsafe_set fr.slots s (e fr); fr.top <- s + 1)
  | Ast.Assign (Ast.Lvar x, e) -> (
    let e = expr env e in
    match resolve env x with
    | Some s -> fun fr -> burn (); Array.unsafe_set fr.slots s (e fr)
    | None -> fun fr -> burn (); ignore (e fr); err "unknown variable %s" x)
  | Ast.Assign (Ast.Lderef a, e) ->
    let e = expr env e and a = expr env a in
    fun fr -> burn (); let v = e fr in Policy.store policy (a fr) v
  | Ast.Assign (Ast.Lindex (a, i), e) ->
    let e = expr env e and a = expr env a and i = expr env i in
    fun fr ->
      burn ();
      let v = e fr in
      let base = a fr in
      Policy.store policy (base + (8 * i fr)) v
  | Ast.If (c, t, f) ->
    let c = expr env c and t = block env t and f = block env f in
    fun fr -> burn (); if c fr <> 0 then t fr else f fr
  | Ast.While (c, body) ->
    let base = next_slot (List.hd env.scopes) in
    let c = expr env c and body = block env body in
    fun fr ->
      burn ();
      (try
         while burn (); c fr <> 0 do
           try body fr with Continue_signal -> fr.top <- base
         done
       with Break_signal -> fr.top <- base)
  | Ast.For (init, cond, step, body) -> for_loop env ~burn init cond step body
  | Ast.Return None -> fun _ -> burn (); raise_notrace (Return_signal 0)
  | Ast.Return (Some e) ->
    let e = expr env e in
    fun fr -> burn (); raise_notrace (Return_signal (e fr))
  | Ast.Break -> fun _ -> burn (); raise_notrace Break_signal
  | Ast.Continue -> fun _ -> burn (); raise_notrace Continue_signal
  | Ast.Expr e ->
    let e = expr env e in
    fun fr -> burn (); ignore (e fr)
  | Ast.Block b ->
    let b = block env b in
    fun fr -> burn (); b fr

(* The header (init, cond, step) is a scope of its own around the body.
   A [var] in the step declares its variable in that scope when the step
   first runs: before that, the cond, the body and the step itself see
   the binding outside the loop, if any.  Such a loop is compiled twice,
   for its first iteration and for the rest. *)
and for_loop env ~burn init cond step body =
  let header = push_scope env in
  let init = Option.fold ~none:ignore ~some:(stmt env) init in
  let iteration () =
    let cond = Option.map (expr env) cond in
    let base = next_slot header in
    let body = block env body in
    let step = Option.fold ~none:ignore ~some:(stmt env) step in
    fun fr ->
      burn ();
      match cond with
      | Some c when c fr = 0 -> false
      | _ ->
        (try body fr with Continue_signal -> fr.top <- base);
        step fr;
        true
  in
  let declared = next_slot header in
  let first = iteration () in
  let rest = if next_slot header = declared then first else iteration () in
  pop_scope env;
  fun fr ->
    burn ();
    init fr;
    (try if first fr then while rest fr do () done with Break_signal -> ());
    fr.top <- header.base

(* Compile in order: a [var] is visible only to what follows it.  A block
   that declared variables drops them from the frame on the way out. *)
and block env stmts =
  let sc = push_scope env in
  let codes = List.fold_left (fun acc s -> stmt env s :: acc) [] stmts in
  pop_scope env;
  let run =
    match codes with
    | [] -> ignore
    | last :: before -> List.fold_left (fun rest s fr -> s fr; rest fr) last before
  in
  if sc.names = [] then run else fun fr -> run fr; fr.top <- sc.base

(* Compile every function against this run's context.  The first
   definition of a name wins, as in a lookup by name. *)
let compile st (program : Ast.program) =
  let env = { st; funcs = Hashtbl.create 16; scopes = []; size = 0 } in
  (* Open [fd]'s function scope: its parameters, in their slots. *)
  let enter (fd : Ast.func) =
    let sc = push_scope env in
    let slots = List.map (fun p -> fst (declare env p)) fd.Ast.params in
    (Array.of_list slots, next_slot sc)
  in
  let defs =
    List.filter_map
      (fun (fd : Ast.func) ->
        if Hashtbl.mem env.funcs fd.Ast.name then None
        else begin
          let param_slots, params_in_scope = enter fd in
          pop_scope env;
          let arity = Array.length param_slots in
          let f = { arity; param_slots; params_in_scope; size = 0; body = ignore } in
          Hashtbl.add env.funcs fd.Ast.name f;
          Some (fd, f)
        end)
      program.Ast.funcs
  in
  List.iter
    (fun ((fd : Ast.func), f) ->
      env.size <- snd (enter fd);
      f.body <- block env fd.Ast.body;
      pop_scope env;
      f.size <- env.size)
    defs;
  env.funcs

(* --- entry points --- *)

let allocate_literals st program =
  let site =
    if Dh_obs.Control.enabled () then
      Dh_obs.Audit.site (Printf.sprintf "minic:%s:literals" st.prog_name)
    else Dh_obs.Audit.unknown
  in
  Dh_obs.Audit.with_site site @@ fun () ->
  List.iter
    (fun s ->
      match st.ctx.Program.alloc.Allocator.malloc (String.length s + 1) with
      | Some addr ->
        write_cstring st addr s;
        Hashtbl.replace st.literals s addr
      | None -> err "out of memory allocating string literal %S" s)
    (Ast.string_literals program)

(* The roots: the literals, then the variables in scope in every active
   call, outermost call first.  A variable of an exited block is not one. *)
let register_gc_roots st =
  match st.ctx.Program.alloc.Allocator.register_roots with
  | None -> ()
  | Some register ->
    register (fun () ->
        let roots = ref [] in
        List.iter (fun fr -> for i = fr.top - 1 downto 0 do roots := fr.slots.(i) :: !roots done) st.frames;
        Hashtbl.iter (fun _ addr -> roots := addr :: !roots) st.literals;
        !roots)

let run ?(libc = Unchecked) ?(name = "minic") program ctx =
  let literals = Hashtbl.create 16 and call_sites = Site_tbl.create 16 in
  let st = { libc; ctx; frames = []; literals; input_pos = 0; prog_name = name; call_sites } in
  register_gc_roots st;
  allocate_literals st program;
  match Hashtbl.find_opt (compile st program) "main" with
  | None -> err "no main function"
  | Some main ->
    if main.arity <> 0 then err "main takes no parameters";
    let code = invoke st main (new_frame main) in
    if code <> 0 then raise (Process.Exit_program code)

let to_program ?libc ~name program =
  Program.make ~name (fun ctx -> run ?libc ~name program ctx)

let program_of_source ?libc ~name source =
  to_program ?libc ~name (Parser.parse_program source)
