(** Minimal JSON document builder and reader — just enough for the
    Chrome trace_event export, the bench snapshot files, and reading
    those snapshots back for [bench --diff]. Correct string escaping
    and number formatting (NaN/∞ become [null]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact (single-line) serialization. *)
val to_string : t -> string

val pp : t Fmt.t

(** Parse a complete JSON document. Standard JSON, except non-ASCII
    [\uXXXX] escapes decode to their literal escaped form (this repo
    never emits them). *)
val of_string : string -> (t, string) result

(** Accessors for reading parsed documents; [None] on kind mismatch. *)

val member : string -> t -> t option

val to_list : t -> t list option

(** Numeric value of an [Int] or [Float]. *)
val to_number : t -> float option
