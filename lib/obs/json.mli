(** A minimal JSON parser, used to validate the telemetry the repository
    emits ({!Tracing.write_chrome_json}, the bench report) without pulling
    in a JSON dependency.  Strict on structure, lenient on nothing:
    trailing garbage, unterminated strings and malformed numbers are
    errors. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value spanning the whole input (surrounding
    whitespace allowed).  The error names the byte offset. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] elsewhere. *)

val string_value : t -> string option

val escape : string -> string
(** The body of a JSON string literal for the given bytes (no quotes). *)

val to_string : t -> string
(** Print a value so that {!parse} reads it back equal (finite numbers
    round-trip exactly; NaN and infinities print as [null]).  A
    container that fits in 80 columns stays on one line; a longer one
    puts each entry on its own indented line.  Ends with a newline. *)
