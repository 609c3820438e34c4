(* Counts the library's test-only interface values, exactly.

   Usage: interface_callers.exe BUILD_DIR   (BUILD_DIR is _build/default,
   after `dune build @check` has written every .cmt and .cmti file)

   A top-level [val] of a lib/ .mli is test-only when no code outside its
   own module in lib/, bench/, bin/ or examples/ refers to it.  Each such
   val must say which check it serves in its doc comment: "Oracle:" when
   tests reach it, "Benchmark:" when perfbench/ (the repository
   benchmark) does.  The
   references are the [Texp_ident]s of the typed trees, with module
   aliases followed, so a name reached through [open] or a local
   [module M = ...] counts and a mere mention in a comment does not.

   Prints "test-only mli vals: N (noted M, benchmark-held K)" and exits 1,
   after naming each one, when a test-only val has no note. *)

let dirs = [ "lib"; "bench"; "bin"; "examples"; "test"; "perfbench" ]

let rec files dir suffix acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then files path suffix acc
      else if Filename.check_suffix name suffix then path :: acc
      else acc)
    acc (Sys.readdir dir)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A value path as the compilation unit that defines it and the val's name
   in that unit, e.g. [Dh_alloc.Heap.malloc], [Dh_alloc__.Heap.malloc]
   (inside the library) and [Dh_alloc__Heap.malloc] are all
   "Dh_alloc__Heap.malloc".  [aliases] maps local module idents to the
   global path they name. *)
let rec components aliases = function
  | Path.Pident id when Ident.global id -> Some [ Ident.name id ]
  | Path.Pident id -> Hashtbl.find_opt aliases (Ident.unique_name id)
  | Path.Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (components aliases p)
  | Path.Papply _ | Path.Pextra_ty _ -> None

let key = function
  | root :: m :: rest when String.ends_with ~suffix:"__" root ->
      Some (root ^ m, rest)
  | root :: rest when contains root "__" -> Some (root, rest)
  | root :: m :: rest -> Some (root ^ "__" ^ m, rest)
  | _ -> None

let value_key aliases path =
  match Option.bind (components aliases path) key with
  | Some (unit, [ v ]) -> Some (unit ^ "." ^ v)
  | _ -> None

let rec alias_target aliases (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> components aliases p
  | Tmod_constraint (me, _, _, _) -> alias_target aliases me
  | _ -> None

(* The keys every value reference in one implementation reaches. *)
let references (str : Typedtree.structure) =
  let aliases = Hashtbl.create 8 and refs = ref [] in
  let bind id me =
    match (id, alias_target aliases me) with
    | Some id, Some target ->
        Hashtbl.replace aliases (Ident.unique_name id) target
    | _ -> ()
  in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      module_binding =
        (fun sub mb ->
          bind mb.mb_id mb.mb_expr;
          default_iterator.module_binding sub mb);
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> (
              match value_key aliases p with
              | Some k -> refs := k :: !refs
              | None -> ())
          | Texp_letmodule (id, _, _, me, _) -> bind id me
          | _ -> ());
          default_iterator.expr sub e);
    }
  in
  it.structure it str;
  !refs

let doc attrs =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      match a.attr_payload with
      | PStr
          [
            {
              pstr_desc =
                Pstr_eval
                  ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
              _;
            };
          ]
        when a.attr_name.txt = "ocaml.doc" ->
          Some s
      | _ -> None)
    attrs
  |> String.concat "\n"

type caller = Production | Benchmark | Test

let () =
  let build =
    match Sys.argv with
    | [| _; build |] -> build
    | _ ->
        prerr_endline "usage: interface_callers.exe BUILD_DIR";
        exit 2
  in
  (* Every top-level val of a lib/ interface: key, source, line, doc. *)
  let vals =
    files (Filename.concat build "lib") ".cmti" []
    |> List.concat_map (fun path ->
           let cmt = Cmt_format.read_cmt path in
           match cmt.cmt_annots with
           | Interface sg ->
               List.filter_map
                 (fun (item : Typedtree.signature_item) ->
                   match item.sig_desc with
                   | Tsig_value vd ->
                       Some
                         ( cmt.cmt_modname ^ "." ^ vd.val_name.txt,
                           Option.value cmt.cmt_sourcefile ~default:path,
                           vd.val_loc.loc_start.pos_lnum,
                           doc vd.val_attributes )
                   | _ -> None)
                 sg.sig_items
           | _ -> [])
  in
  let callers = Hashtbl.create 512 in
  List.iter
    (fun dir ->
      let caller =
        match dir with
        | "test" -> Test
        | "perfbench" -> Benchmark
        | _ -> Production
      in
      files (Filename.concat build dir) ".cmt" []
      |> List.iter (fun path ->
             let cmt = Cmt_format.read_cmt path in
             match cmt.cmt_annots with
             | Implementation str ->
                 List.iter
                   (fun k ->
                     if not (String.starts_with ~prefix:(cmt.cmt_modname ^ ".") k)
                     then Hashtbl.add callers k caller)
                   (references str)
             | _ -> ()))
    dirs;
  let flagged =
    List.filter_map
      (fun (k, src, line, doc) ->
        let by = Hashtbl.find_all callers k in
        if List.mem Production by then None
        else Some (k, src, line, doc, List.mem Benchmark by))
      vals
  in
  let unnoted =
    List.filter
      (fun (_, _, _, doc, bench) ->
        not (contains doc (if bench then "Benchmark:" else "Oracle:")))
      flagged
  in
  Printf.printf "test-only mli vals:  %d (noted %d, benchmark-held %d)\n"
    (List.length flagged)
    (List.length flagged - List.length unnoted)
    (List.length (List.filter (fun (_, _, _, _, bench) -> bench) flagged));
  List.iter
    (fun (k, src, line, _, bench) ->
      Printf.eprintf "%s:%d: %s has no caller outside %s and no %s note\n" src
        line k
        (if bench then "test/ and perfbench/" else "test/")
        (if bench then "Benchmark:" else "Oracle:"))
    (List.sort compare unnoted);
  if unnoted <> [] then exit 1
