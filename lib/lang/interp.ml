module Allocator = Dh_alloc.Allocator
module Policy = Dh_alloc.Policy
module Program = Dh_alloc.Program
module Process = Dh_mem.Process
module Fuel = Process.Fuel

type libc = Unchecked | Bounded

exception Runtime_error of string

let err fmt = Format.kasprintf (fun msg -> raise (Runtime_error msg)) fmt

(* Control-flow signals.  A [return] leaves its value in the state's
   [ret] field, so no signal carries an argument and none allocates. *)
exception Return_signal
exception Break_signal
exception Continue_signal

(* One call's variables.  The compiler numbers a function's block-scoped
   variables so that the ones in scope at any point are exactly
   [slots.(0 .. top-1)]: a block's variables follow those of the blocks
   around it, and leaving a block lowers [top] back to where it was.
   [caller] links the active calls' frames, innermost first, down to
   [bottom]. *)
type frame = { slots : int array; mutable top : int; caller : frame }

let rec bottom = { slots = [||]; top = 0; caller = bottom }

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
  (* The innermost active call's frame: with the literals, the GC root
     set. *)
  mutable frames : frame;
  (* The value of the [return] being taken. *)
  mutable ret : int;
  (* Addresses of the startup-allocated string literals. *)
  literals : (string, int) Hashtbl.t;
  mutable input_pos : int;
  prog_name : string;
  call_sites : int Site_tbl.t;
  (* The allocator's address space's obs state: its flag and ambient
     site. *)
  obs : Dh_obs.Recorder.t;
}

(* The audit site of an allocating builtin's callsite, interned when it
   first executes with observability on (ids are stable within a run). *)
let alloc_site st ~builtin args =
  match Site_tbl.find_opt st.call_sites args with
  | Some s -> s
  | None ->
    let s =
      Dh_obs.Audit.site
        (Printf.sprintf "minic:%s:%s#%d" st.prog_name builtin (Site_tbl.length st.call_sites))
    in
    Site_tbl.add st.call_sites args s;
    s

(* [f x y] bracketed in the callsite's ambient audit site, as an address
   (NULL when the allocator refuses).  An obs-off run pays one field
   load, and neither builds a closure nor touches the table. *)
let allocate st ~builtin args f x y =
  if not (Dh_obs.Recorder.on st.obs) then f x y
  else Dh_obs.Audit.with_site st.obs (alloc_site st ~builtin args) (f x) y

(* --- heap access helpers --- *)

let[@inline] load8 st addr = Policy.load8 st.ctx.Program.policy addr
let[@inline] store8 st addr v = Policy.store8 st.ctx.Program.policy addr v

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
    match available st dst with None -> n | Some room -> Int.min n room)

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

(* A builtin's implementation, typed by its arity. *)
type prim =
  | P0 of (unit -> int)
  | P1 of (int -> int)
  | P2 of (int -> int -> int)
  | P3 of (int -> int -> int -> int)

let prim_arity = function P0 _ -> 0 | P1 _ -> 1 | P2 _ -> 2 | P3 _ -> 3

(* The builtins, the only table of them: each name's implementation.
   [args] is the callsite's argument list, which keys its audit site. *)
let builtin st name args : prim option =
  let alloc = st.ctx.Program.alloc and out = st.ctx.Program.out in
  let allocate f x y = allocate st ~builtin:name args f x y in
  let malloc n _ = alloc.Allocator.malloc n and realloc = Policy.realloc st.ctx.Program.policy in
  match name with
  | "malloc" -> Some (P1 (fun n -> allocate malloc n 0))
  | "calloc" ->
    Some (P1 (fun n ->
        (* zero-fill through the access policy so a fail-stop policy's
           initialization tracking sees the writes *)
        let p = allocate malloc n 0 in
        if p <> 0 then for i = 0 to n - 1 do store8 st (p + i) 0 done;
        p))
  | "realloc" -> Some (P2 (fun p n -> allocate realloc p n))
  | "free" -> Some (P1 (fun p -> alloc.Allocator.free p; 0))
  | "print_int" -> Some (P1 (fun v -> Process.Out.print_int out v; 0))
  | "print_char" -> Some (P1 (fun v -> Process.Out.print_char out (Char.chr (v land 0xFF)); 0))
  | "print_str" -> Some (P1 (fun p -> Process.Out.print_string out (read_cstring st p); 0))
  | "getchar" -> Some (P0 (fun () -> builtin_getchar st))
  | "gets" -> Some (P1 (fun p -> builtin_gets st p))
  | "strlen" -> Some (P1 (fun p -> cstrlen st p))
  | "strcpy" -> Some (P2 (fun d s -> builtin_strcpy st d s; d))
  | "strncpy" -> Some (P3 (fun d s n -> builtin_strncpy st d s n; d))
  | "strcmp" -> Some (P2 (fun a b -> builtin_strcmp st a b))
  | "memcpy" ->
    Some (P3 (fun d s n ->
        for i = 0 to bounded_limit st d n - 1 do store8 st (d + i) (load8 st (s + i)) done;
        d))
  | "memset" ->
    Some (P3 (fun d c n ->
        for i = 0 to bounded_limit st d n - 1 do store8 st (d + i) c done;
        d))
  | "load8" -> Some (P1 (fun p -> load8 st p))
  | "store8" -> Some (P2 (fun p v -> store8 st p v; 0))
  | "now" -> Some (P0 (fun () -> 0))
  | "exit" -> Some (P1 (fun code -> raise (Process.Exit_program code)))
  | _ -> None

(* --- compilation ---

   [run] compiles the program once, against the run's context, into
   closures over a frame: every variable is resolved to a frame slot and
   every callsite to a builtin or a user function before the first
   statement runs.  The compiler is also the static checker: it reports
   each name it cannot resolve, and each rule the run would only trip
   over when it got there, as it meets them, in program order.

   The closures are shaped to make few indirect calls per step.  A
   variable or a constant used as an operand of a binary operator, an
   index, a store or a builtin call is read inline by the closure that
   uses it, and [x = a op b] over such operands computes and stores in
   the statement's own closure.  A block runs its statements from one
   closure, and a loop installs a [break] or [continue] handler only
   when its body has one. *)

type code = frame -> int

(* A compiled operand: a variable's slot and a constant are read inline
   by the code that uses them; anything else is code to call. *)
type operand = Slot of int | Const of int | Code of code

(* The right side of [x = e] or [var x = e]: a binary operator over two
   operands is kept apart, so the store can compute it inline. *)
type rvalue = Op of Ast.binop * operand * operand | Value of operand

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
  mutable where : string;  (* the function being compiled, for diagnostics *)
  mutable loops : int;  (* loops around the code being compiled *)
  (* Whether the innermost loop's body has compiled a [break] or a
     [continue] of its own so far. *)
  mutable breaks : bool;
  mutable continues : bool;
  (* Some [break] or [continue] lies outside every loop of its function.
     At run time such a signal unwinds out of its call into the nearest
     active loop of a caller, so then every loop keeps both handlers. *)
  stray : bool;
  mutable diagnostics : string list;  (* newest first *)
}

let report env fmt =
  Printf.ksprintf (fun d -> env.diagnostics <- d :: env.diagnostics) ("in %s: " ^^ fmt) env.where

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

(* Whether [s] has a [break] or [continue] outside every loop of its
   function. *)
let rec stray_signal (s : Ast.stmt) =
  match s with
  | Ast.Break | Ast.Continue -> true
  | Ast.If (_, t, f) -> List.exists stray_signal t || List.exists stray_signal f
  | Ast.Block b -> List.exists stray_signal b
  | _ -> false

let of_bool b = if b then 1 else 0

(* The simulated machine's SIGFPE: the process crashes, as a replica
   that divides by an uninitialized byte does in C. *)
let arith_trap op = Dh_mem.Fault.raise_fault (Dh_mem.Fault.Arith_trap op)

(* Frame accesses are in bounds by construction: every frame is sized
   for the slots its function's code mentions. *)
let[@inline] get fr s = Array.unsafe_get fr.slots s
let[@inline] set fr s v = Array.unsafe_set fr.slots s v

(* A binary operator on its operands' values.  [binop] compiles [&&]
   and [||] to short-circuit and never passes them here; their cases
   keep the match total. *)
let[@inline] arith (op : Ast.binop) x y =
  match op with
  | Ast.Add -> x + y
  | Ast.Sub -> x - y
  | Ast.Mul -> x * y
  | Ast.Div -> if y = 0 then arith_trap Dh_mem.Fault.Division else x / y
  | Ast.Mod -> if y = 0 then arith_trap Dh_mem.Fault.Modulo else x mod y
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
  | Ast.And -> of_bool (x <> 0 && y <> 0)
  | Ast.Or -> of_bool (x <> 0 || y <> 0)

let code_of = function
  | Slot s -> fun fr -> get fr s
  | Const k -> fun _ -> k
  | Code c -> c

let[@inline] read fr = function Slot s -> get fr s | Const k -> k | Code c -> c fr

let new_frame st (f : func) =
  { slots = Array.make f.size 0; top = f.params_in_scope; caller = st.frames }

(* Run [f]'s body on [callee], a frame whose parameters are set.  The
   frame was made on this call's way in, so its caller is the innermost
   frame here too: argument calls in between restored it. *)
let invoke st (f : func) callee =
  Fuel.burn st.ctx.Program.fuel;
  st.frames <- callee;
  let result = match f.body callee with () -> 0 | exception Return_signal -> st.ret in
  st.frames <- callee.caller;
  result

(* Operands compile left to right, as they run, so diagnostics come in
   source order.  Reading a slot or a constant has no effect, and no
   expression writes a slot of the frame it runs in, so such a read may
   run before or after the operand beside it. *)
let rec operand env (e : Ast.expr) : operand =
  let policy = env.st.ctx.Program.policy in
  match e with
  | Ast.Int n -> Const n
  | Ast.Char c -> Const (Char.code c)
  | Ast.Str s -> (
    match Hashtbl.find_opt env.st.literals s with
    | Some addr -> Const addr
    | None -> Code (fun _ -> err "internal: unallocated string literal %S" s))
  | Ast.Var x -> (
    match resolve env x with
    | Some s -> Slot s
    | None ->
      report env "unknown variable %s" x;
      Code (fun _ -> err "unknown variable %s" x))
  | Ast.Unop (op, a) -> (
    let a = expr env a in
    match op with
    | Ast.Neg -> Code (fun fr -> -a fr)
    | Ast.Not -> Code (fun fr -> of_bool (a fr = 0))
    | Ast.Bnot -> Code (fun fr -> lnot (a fr))
    | Ast.Deref -> Code (fun fr -> Policy.load policy (a fr)))
  | Ast.Binop (op, a, b) ->
    let a = operand env a in
    Code (binop op a (operand env b))
  | Ast.Index (a, i) ->
    let a = operand env a in
    Code (index policy a (operand env i))
  | Ast.Call (name, args) -> Code (call env name args)

and expr env e = code_of (operand env e)

and binop op a b : code =
  match (op, a, b) with
  | Ast.And, a, b ->
    let a = code_of a and b = code_of b in
    fun fr -> if a fr <> 0 then of_bool (b fr <> 0) else 0
  | Ast.Or, a, b ->
    let a = code_of a and b = code_of b in
    fun fr -> if a fr <> 0 then 1 else of_bool (b fr <> 0)
  | _, Slot s, Slot t -> fun fr -> arith op (get fr s) (get fr t)
  | _, Slot s, Const k -> fun fr -> arith op (get fr s) k
  | _, Const k, Slot t -> fun fr -> arith op k (get fr t)
  | _, Slot s, Code b -> fun fr -> arith op (get fr s) (b fr)
  | _, Code a, Slot t -> fun fr -> arith op (a fr) (get fr t)
  | _, Code a, Const k -> fun fr -> arith op (a fr) k
  | _, Const k, Code b -> fun fr -> arith op k (b fr)
  | _, a, b ->
    let a = code_of a and b = code_of b in
    fun fr -> let x = a fr in arith op x (b fr)

(* [a[i]], the word at [a + 8*i]. *)
and index policy a i : code =
  match (a, i) with
  | Slot p, Slot j -> fun fr -> Policy.load policy (get fr p + (8 * get fr j))
  | Slot p, Const k -> let off = 8 * k in fun fr -> Policy.load policy (get fr p + off)
  | Slot p, Code i -> fun fr -> let j = i fr in Policy.load policy (get fr p + (8 * j))
  | Code a, Slot j -> fun fr -> Policy.load policy (a fr + (8 * get fr j))
  | Code a, Const k -> let off = 8 * k in fun fr -> Policy.load policy (a fr + off)
  | a, i ->
    let a = code_of a and i = code_of i in
    fun fr -> let base = a fr in Policy.load policy (base + (8 * i fr))

(* Resolve a callsite once.  Builtins win over user functions of the same
   name.  Name and arity errors are raised only if the call is reached —
   an arity error after the arguments were evaluated.  The diagnostic
   looks a user function up first: the two orders differ only for a
   function that shadows a builtin, itself reported. *)
and call env name args : code =
  let ops = List.map (operand env) args and got = List.length args in
  let user = Hashtbl.find_opt env.funcs name and prim = builtin env.st name args in
  (match (user, prim) with
  | Some f, _ when f.arity <> got -> report env "%s expects %d argument(s), got %d" name f.arity got
  | None, Some p when prim_arity p <> got ->
    report env "builtin %s expects %d argument(s), got %d" name (prim_arity p) got
  | None, None -> report env "unknown function %s" name
  | _ -> ());
  let arity_error n =
    let codes = List.map code_of ops in
    fun fr ->
      List.iter (fun a -> ignore (a fr)) codes;
      err "%s expects %d argument(s), got %d" name n got
  in
  match (prim, user) with
  | Some p, _ when prim_arity p <> got -> arity_error (prim_arity p)
  | Some p, _ -> builtin_call p ops
  | None, None -> fun _ -> err "unknown function %s" name
  | None, Some f when f.arity <> got -> arity_error f.arity
  | None, Some f ->
    let st = env.st and codes = Array.of_list (List.map code_of ops) in
    fun fr ->
      let callee = new_frame st f in
      for i = 0 to Array.length codes - 1 do
        set callee (Array.unsafe_get f.param_slots i) ((Array.unsafe_get codes i) fr)
      done;
      invoke st f callee

(* A call of [prim] on operands of its arity, run left to right. *)
and builtin_call prim ops : code =
  match (prim, ops) with
  | P0 f, [] -> fun _ -> f ()
  | P1 f, [ Slot s ] -> fun fr -> f (get fr s)
  | P1 f, [ Const k ] -> fun _ -> f k
  | P1 f, [ Code a ] -> fun fr -> f (a fr)
  | P2 f, [ a; b ] -> fun fr -> let x = read fr a in f x (read fr b)
  | P3 f, [ a; b; c ] -> fun fr -> let x = read fr a in let y = read fr b in f x y (read fr c)
  | _ -> assert false (* [call] checked the arity *)

(* Every statement burns one unit of fuel before it runs, and every loop
   one more per iteration, before its condition. *)
and stmt env (s : Ast.stmt) : frame -> unit =
  let st = env.st in
  let fuel = st.ctx.Program.fuel and policy = st.ctx.Program.policy in
  match s with
  | Ast.Decl (x, e) ->
    let e = rvalue env e in
    store_slot env (fst (declare env x)) e
  | Ast.Assign (Ast.Lvar x, e) -> (
    let e = rvalue env e in
    match resolve env x with
    | Some s -> store_slot env s e
    | None ->
      report env "unknown variable %s" x;
      let e = rvalue_code e in
      fun fr -> Fuel.burn fuel; ignore (e fr); err "unknown variable %s" x)
  | Ast.Assign (Ast.Lderef a, e) ->
    let e = expr env e in
    let a = expr env a in
    fun fr -> Fuel.burn fuel; let v = e fr in Policy.store policy (a fr) v
  | Ast.Assign (Ast.Lindex (a, i), e) -> (
    let v = operand env e in
    let a = operand env a in
    match (v, a, operand env i) with
    | Slot v, Slot p, Slot j ->
      fun fr -> Fuel.burn fuel; Policy.store policy (get fr p + (8 * get fr j)) (get fr v)
    | Slot v, Slot p, Const k ->
      let off = 8 * k in
      fun fr -> Fuel.burn fuel; Policy.store policy (get fr p + off) (get fr v)
    | e, Slot p, Slot j ->
      let e = code_of e in
      fun fr -> Fuel.burn fuel; let v = e fr in Policy.store policy (get fr p + (8 * get fr j)) v
    | e, Slot p, Const k ->
      let e = code_of e and off = 8 * k in
      fun fr -> Fuel.burn fuel; let v = e fr in Policy.store policy (get fr p + off) v
    | e, a, i ->
      let e = code_of e and a = code_of a and i = code_of i in
      fun fr ->
        Fuel.burn fuel;
        let v = e fr in
        let base = a fr in
        Policy.store policy (base + (8 * i fr)) v)
  | Ast.If (c, t, []) ->
    let c = expr env c in
    let t = block env t in
    fun fr -> Fuel.burn fuel; if c fr <> 0 then t fr
  | Ast.If (c, t, f) ->
    let c = expr env c in
    let t = block env t in
    let f = block env f in
    fun fr -> Fuel.burn fuel; if c fr <> 0 then t fr else f fr
  | Ast.While (c, body) ->
    let base = next_slot (List.hd env.scopes) in
    let c = expr env c in
    let body, breaks = loop_body env ~base body in
    if breaks then fun fr ->
      Fuel.burn fuel;
      try while Fuel.burn fuel; c fr <> 0 do body fr done with Break_signal -> fr.top <- base
    else fun fr ->
      Fuel.burn fuel;
      while Fuel.burn fuel; c fr <> 0 do body fr done
  | Ast.For (init, cond, step, body) -> for_loop env init cond step body
  | Ast.Return None -> fun _ -> Fuel.burn fuel; st.ret <- 0; raise_notrace Return_signal
  | Ast.Return (Some e) ->
    let e = expr env e in
    fun fr -> Fuel.burn fuel; st.ret <- e fr; raise_notrace Return_signal
  | Ast.Break ->
    if env.loops = 0 then report env "break outside a loop";
    env.breaks <- true;
    fun _ -> Fuel.burn fuel; raise_notrace Break_signal
  | Ast.Continue ->
    if env.loops = 0 then report env "continue outside a loop";
    env.continues <- true;
    fun _ -> Fuel.burn fuel; raise_notrace Continue_signal
  | Ast.Expr e ->
    let e = expr env e in
    fun fr -> Fuel.burn fuel; ignore (e fr)
  | Ast.Block b ->
    let b = block env b in
    fun fr -> Fuel.burn fuel; b fr

and rvalue env (e : Ast.expr) =
  match e with
  | Ast.Binop (op, a, b) when op <> Ast.And && op <> Ast.Or ->
    let a = operand env a in
    Op (op, a, operand env b)
  | e -> Value (operand env e)

and rvalue_code = function Op (op, a, b) -> binop op a b | Value v -> code_of v

(* [x = e] or [var x = e], [x] in slot [s].  The statement leaves the
   frame's top where the compiler's scopes put it at this point, which
   for a new [var] raises it past [s] and otherwise keeps it. *)
and store_slot env s e =
  let fuel = env.st.ctx.Program.fuel and top = next_slot (List.hd env.scopes) in
  match e with
  | Op (op, Slot a, Slot b) ->
    fun fr -> Fuel.burn fuel; set fr s (arith op (get fr a) (get fr b)); fr.top <- top
  | Op (op, Slot a, Const k) ->
    fun fr -> Fuel.burn fuel; set fr s (arith op (get fr a) k); fr.top <- top
  | Op (op, Const k, Slot b) ->
    fun fr -> Fuel.burn fuel; set fr s (arith op k (get fr b)); fr.top <- top
  | Op (op, Code a, Slot b) ->
    fun fr -> Fuel.burn fuel; set fr s (arith op (a fr) (get fr b)); fr.top <- top
  | Op (op, Code a, Const k) ->
    fun fr -> Fuel.burn fuel; set fr s (arith op (a fr) k); fr.top <- top
  | Op (op, Slot a, Code b) ->
    fun fr -> Fuel.burn fuel; set fr s (arith op (get fr a) (b fr)); fr.top <- top
  | Value (Slot a) -> fun fr -> Fuel.burn fuel; set fr s (get fr a); fr.top <- top
  | Value (Const k) -> fun fr -> Fuel.burn fuel; set fr s k; fr.top <- top
  | e ->
    let e = rvalue_code e in
    fun fr -> Fuel.burn fuel; set fr s (e fr); fr.top <- top

(* A loop body, and whether it has a [break] of its own.  A body with a
   [continue] of its own comes wrapped in the handler that restores the
   frame's top to [base], where the iteration started. *)
and loop_body env ~base body =
  let breaks = env.breaks and continues = env.continues in
  env.breaks <- env.stray;
  env.continues <- env.stray;
  env.loops <- env.loops + 1;
  let code = block env body in
  env.loops <- env.loops - 1;
  let body_breaks = env.breaks and body_continues = env.continues in
  env.breaks <- breaks;
  env.continues <- continues;
  ( (if body_continues then fun fr -> try code fr with Continue_signal -> fr.top <- base else code),
    body_breaks )

(* The header (init, cond, step) is a scope of its own around the body.
   A [var] in the step declares its variable in that scope when the step
   first runs: before that, the cond, the body and the step itself see
   the binding outside the loop, if any.  Such a loop is compiled twice,
   for its first iteration and for the rest; only the first compile
   reports. *)
and for_loop env init cond step body =
  let fuel = env.st.ctx.Program.fuel in
  let header = push_scope env in
  let init = Option.fold ~none:ignore ~some:(stmt env) init in
  let iteration () =
    let cond = match cond with None -> fun _ -> 1 | Some c -> expr env c in
    let body, breaks = loop_body env ~base:(next_slot header) body in
    (* The step is inside the loop for the checker; the parser makes it
       a simple statement, never a [break] or [continue]. *)
    env.loops <- env.loops + 1;
    let step = Option.fold ~none:ignore ~some:(stmt env) step in
    env.loops <- env.loops - 1;
    (cond, body, step, breaks)
  in
  let declared = next_slot header in
  let cond, body, step, breaks = iteration () in
  let iterate =
    if next_slot header = declared then fun fr ->
      while Fuel.burn fuel; cond fr <> 0 do body fr; step fr done
    else begin
      let reported = env.diagnostics in
      let cond', body', step', _ = iteration () in
      env.diagnostics <- reported;
      fun fr ->
        Fuel.burn fuel;
        if cond fr <> 0 then begin
          body fr;
          step fr;
          while Fuel.burn fuel; cond' fr <> 0 do body' fr; step' fr done
        end
    end
  in
  pop_scope env;
  let base = header.base in
  if breaks then fun fr ->
    Fuel.burn fuel;
    init fr;
    (try iterate fr with Break_signal -> ());
    fr.top <- base
  else fun fr ->
    Fuel.burn fuel;
    init fr;
    iterate fr;
    fr.top <- base

(* Compile in order: a [var] is visible only to what follows it.  Leaving
   a block lowers the frame's top to where it was, dropping the block's
   variables: a store that changes nothing when the block declared none,
   so a one-statement block that declares none is its statement. *)
and block env stmts =
  let sc = push_scope env in
  let codes = Array.of_list (List.rev (List.fold_left (fun acc s -> stmt env s :: acc) [] stmts)) in
  pop_scope env;
  let base = sc.base in
  match codes with
  | [||] -> ignore
  | [| a |] when sc.names = [] -> a
  | [| a |] -> fun fr -> a fr; fr.top <- base
  | [| a; b |] -> fun fr -> a fr; b fr; fr.top <- base
  | [| a; b; c |] -> fun fr -> a fr; b fr; c fr; fr.top <- base
  | codes ->
    fun fr ->
      for i = 0 to Array.length codes - 1 do (Array.unsafe_get codes i) fr done;
      fr.top <- base

(* Compile every function against this run's context, in program order.
   The first definition of a name wins, as in a lookup by name; a later
   one is compiled only to be checked. *)
let compile st (program : Ast.program) =
  let stray = List.exists (fun (fd : Ast.func) -> List.exists stray_signal fd.Ast.body) program.Ast.funcs in
  let env =
    { st; funcs = Hashtbl.create 16; scopes = []; size = 0; where = "<toplevel>"; loops = 0;
      breaks = stray; continues = stray; stray; diagnostics = [] }
  in
  (* Open [fd]'s function scope: its parameters' slots, each with whether
     its name is new, and the slots in scope. *)
  let enter (fd : Ast.func) =
    let sc = push_scope env in
    let slots = List.map (declare env) fd.Ast.params in
    (slots, next_slot sc)
  in
  let defs =
    List.map
      (fun (fd : Ast.func) ->
        let name = fd.Ast.name in
        if Hashtbl.mem env.funcs name then begin
          report env "duplicate function %s" name;
          (fd, None)
        end
        else begin
          if builtin st name [] <> None then report env "function %s shadows a builtin" name;
          let slots, params_in_scope = enter fd in
          pop_scope env;
          let param_slots = Array.of_list (List.map fst slots) in
          let arity = Array.length param_slots in
          let f = { arity; param_slots; params_in_scope; size = 0; body = ignore } in
          Hashtbl.add env.funcs name f;
          (fd, Some f)
        end)
      program.Ast.funcs
  in
  (match Hashtbl.find_opt env.funcs "main" with
  | None -> report env "no main function"
  | Some main -> if main.arity <> 0 then report env "main takes no parameters");
  List.iter
    (fun ((fd : Ast.func), def) ->
      env.where <- fd.Ast.name;
      let slots, size = enter fd in
      List.iter2
        (fun p (_, fresh) -> if not fresh then report env "duplicate parameter %s" p)
        fd.Ast.params slots;
      env.size <- size;
      let body = block env fd.Ast.body in
      pop_scope env;
      Option.iter (fun f -> f.body <- body; f.size <- env.size) def)
    defs;
  env

(* --- entry points --- *)

let allocate_literals st program =
  let site =
    if Dh_obs.Recorder.on st.obs then
      Dh_obs.Audit.site (Printf.sprintf "minic:%s:literals" st.prog_name)
    else Dh_obs.Audit.unknown
  in
  Dh_obs.Audit.with_site st.obs site
    (List.iter (fun s ->
         let addr = st.ctx.Program.alloc.Allocator.malloc (String.length s + 1) in
         if addr = Allocator.null then err "out of memory allocating string literal %S" s
         else begin
           write_cstring st addr s;
           Hashtbl.replace st.literals s addr
         end))
    (Ast.string_literals program)

(* The roots: the literals, then the variables in scope in every active
   call, outermost call first.  A variable of an exited block is not one. *)
let register_gc_roots st =
  match st.ctx.Program.alloc.Allocator.register_roots with
  | None -> ()
  | Some register ->
    register (fun () ->
        let roots = ref [] in
        let rec scan fr =
          if fr != bottom then begin
            for i = fr.top - 1 downto 0 do roots := fr.slots.(i) :: !roots done;
            scan fr.caller
          end
        in
        scan st.frames;
        Hashtbl.iter (fun _ addr -> roots := addr :: !roots) st.literals;
        !roots)

let new_state ~libc ~name ctx =
  let literals = Hashtbl.create 16 and call_sites = Site_tbl.create 16 in
  let obs = Dh_mem.Mem.recorder ctx.Program.alloc.Allocator.mem in
  {
    libc;
    ctx;
    frames = bottom;
    ret = 0;
    literals;
    input_pos = 0;
    prog_name = name;
    call_sites;
    obs;
  }

let run ~libc ~name program ctx =
  let st = new_state ~libc ~name ctx in
  register_gc_roots st;
  allocate_literals st program;
  match Hashtbl.find_opt (compile st program).funcs "main" with
  | None -> err "no main function"
  | Some main ->
    if main.arity <> 0 then err "main takes no parameters";
    let code = invoke st main (new_frame st main) in
    if code <> 0 then raise (Process.Exit_program code)

let program_of_source ?(libc = Unchecked) ~name source =
  let program = Parser.parse_program source in
  Program.make ~name (fun ctx -> run ~libc ~name program ctx)

(* Compile for the diagnostics alone, against a throwaway heap on an
   obs-off space: no literal is allocated and no statement runs. *)
let check program =
  let diagnostics = ref [] in
  let compile_only ctx =
    diagnostics := (compile (new_state ~libc:Unchecked ~name:"check" ctx) program).diagnostics
  in
  let heap = Dh_alloc.Freelist.(allocator (create (Dh_mem.Mem.create ()))) in
  ignore (Program.run (Program.make ~name:"check" compile_only) heap);
  List.rev !diagnostics

let check_source source =
  match Parser.parse_program source with
  | exception Lexer.Lex_error (msg, line, col) ->
    Error [ Printf.sprintf "%d:%d: lexical error: %s" line col msg ]
  | exception Parser.Syntax_error (msg, line, col) ->
    Error [ Printf.sprintf "%d:%d: syntax error: %s" line col msg ]
  | program -> ( match check program with [] -> Ok program | diagnostics -> Error diagnostics)
