(** Minimal JSON: a value type, a serializer with correct string escaping,
    and a small recursive-descent parser.

    Every machine-readable artifact this repository produces — the
    [BENCH_*.json] benchmark records, metric dumps, JSONL span traces —
    goes through this module instead of hand-rolled [Printf] format
    strings, so escaping and separator placement cannot drift between
    emitters. The parser exists so the toolchain can read its own output
    back ([loopt report] renders a JSONL trace; tests round-trip values). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialization. Non-finite floats serialize as
    [null] (JSON has no representation for them); integral floats print
    with a trailing [.0] so they stay floats on re-parse. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing garbage
    is an error). Numbers without [.]/[e] parse as [Int], others as
    [Float]; [\uXXXX] escapes decode to UTF-8, surrogate pairs included. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val to_int : t -> int option

val to_float : t -> float option
(** [Int] promotes. *)

val to_str : t -> string option
val to_list : t -> t list option
