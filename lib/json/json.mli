(** A minimal JSON tree, writer and parser.

    The repository's one JSON surface: the portfolio's result cache and
    telemetry dumps, the observability exporters ({!Obs}), and the
    benchmark trajectory file all emit through this module — the
    repository deliberately has no external JSON dependency. The
    writer emits valid JSON (UTF-8 passed through, control characters
    escaped); the parser accepts what the writer emits plus ordinary
    interchange JSON ([\uXXXX] escapes are decoded for the ASCII range
    and replaced by ['?'] otherwise). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** [pretty] inserts newlines and two-space indentation. *)

val to_file : string -> t -> unit
(** Write [to_string ~pretty:true] plus a trailing newline to a file. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; the error carries an offset. *)

(** {1 Accessors} (total: [None]/[[]] on shape mismatch) *)

val member : string -> t -> t option
val to_list : t -> t list
val string_value : t -> string option
val int_value : t -> int option
val float_value : t -> float option
val bool_value : t -> bool option
