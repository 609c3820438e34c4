type outcome =
  | Exited of int
  | Crashed of Fault.t
  | Aborted of string
  | Timeout

type result = { outcome : outcome; output : string }

exception Exit_program of int
exception Abort of string
exception Out_of_fuel

module Fuel = struct
  type t = { mutable remaining : int }

  let create ~budget =
    if budget < 0 then invalid_arg "Fuel.create: negative budget";
    { remaining = budget }

  (* Inlined: every MiniC statement and loop iteration burns one unit. *)
  let[@inline] burn t =
    if t.remaining = 0 then raise Out_of_fuel;
    t.remaining <- t.remaining - 1

  let remaining t = Some t.remaining
end

module Out = struct
  type t = Buffer.t

  let print_string t s = Buffer.add_string t s
  let print_int t n = Buffer.add_string t (string_of_int n)
  let print_char t c = Buffer.add_char t c

  let printf t fmt =
    Format.kasprintf (Buffer.add_string t) fmt

  let contents t = Buffer.contents t
  let length t = Buffer.length t
  let truncate t n = Buffer.truncate t n
end

let run f =
  let buf = Buffer.create 256 in
  let outcome =
    try
      f buf;
      Exited 0
    with
    | Exit_program code -> Exited code
    | Fault.Error fault -> Crashed fault
    | Abort msg -> Aborted msg
    | Out_of_fuel -> Timeout
  in
  { outcome; output = Buffer.contents buf }

let pp_outcome ppf = function
  | Exited code -> Format.fprintf ppf "exited(%d)" code
  | Crashed fault -> Format.fprintf ppf "crashed: %a" Fault.pp fault
  | Aborted msg -> Format.fprintf ppf "aborted: %s" msg
  | Timeout -> Format.pp_print_string ppf "timeout (infinite loop?)"

let outcome_to_string o = Format.asprintf "%a" pp_outcome o
