type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Bad of int * string

let fail pos msg = raise (Bad (pos, msg))

let parse input =
  let len = String.length input in
  let pos = ref 0 in
  let peek () = if !pos < len then Some input.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail !pos (Printf.sprintf "expected %c, got %c" c got)
    | None -> fail !pos (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= len && String.sub input !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail !pos ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail !pos "unterminated string";
      let c = input.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> (
        if !pos >= len then fail !pos "unterminated escape";
        let e = input.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > len then fail !pos "truncated \\u escape";
          let hex = String.sub input !pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | None -> fail !pos "bad \\u escape"
          | Some code ->
            pos := !pos + 4;
            (* ASCII subset is all we emit; encode the rest as UTF-8. *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end)
        | c -> fail !pos (Printf.sprintf "bad escape \\%c" c));
        go ())
      | c when Char.code c < 0x20 -> fail (!pos - 1) "control character in string"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let s = String.sub input start (!pos - start) in
    match float_of_string_opt s with
    | Some f -> Number f
    | None -> fail start ("bad number " ^ s)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail !pos "expected a value, got end of input"
    | Some '"' -> String (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail !pos "expected , or } in object"
        in
        fields []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail !pos "expected , or ] in array"
        in
        elements []
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail !pos (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail !pos "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "at byte %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let string_value = function String s -> Some s | _ -> None

(* --- printing --- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The shortest of %.15g and %.17g that reads back as the same float;
   integers print without a fraction.  JSON has no NaN or infinity. *)
let number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let rec to_string_flat = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Number x -> number x
  | String s -> "\"" ^ escape s ^ "\""
  | List l -> "[" ^ String.concat ", " (List.map to_string_flat l) ^ "]"
  | Obj fields ->
    let field (k, v) = "\"" ^ escape k ^ "\": " ^ to_string_flat v in
    "{" ^ String.concat ", " (List.map field fields) ^ "}"

let width = 80

let to_string value =
  let b = Buffer.create 1024 in
  (* [used] columns of the current line are taken by indentation and key. *)
  let rec go ~indent ~used v =
    let flat = to_string_flat v in
    let entries, opening, closing =
      match v with
      | List l -> (List.map (fun x -> ("", x)) l, '[', ']')
      | Obj fields ->
        (List.map (fun (k, x) -> ("\"" ^ escape k ^ "\": ", x)) fields, '{', '}')
      | _ -> ([], ' ', ' ')
    in
    if entries = [] || used + String.length flat <= width then Buffer.add_string b flat
    else begin
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_char b opening;
      List.iteri
        (fun i (key, x) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '\n';
          Buffer.add_string b pad;
          Buffer.add_string b key;
          go ~indent:(indent + 2) ~used:(indent + 2 + String.length key) x)
        entries;
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make indent ' ');
      Buffer.add_char b closing
    end
  in
  go ~indent:0 ~used:0 value;
  Buffer.add_char b '\n';
  Buffer.contents b
