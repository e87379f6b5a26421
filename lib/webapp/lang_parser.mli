(** Parser for the concrete mini-PHP syntax produced by
    {!Ast.to_source} and used by the corpus files:

    {v
      $id = input("posted_newsid");
      if (!preg_match(/[\d]+$/, $id)) { exit; }
      $id = "nid_" . $id;
      query("SELECT * FROM news WHERE newsid=" . $id);
    v} *)

type error = { line : int; col : int; message : string }

val pp_error : error Fmt.t

val parse : string -> (Ast.program, error) result

val parse_exn : string -> Ast.program

(** Where a parsed program reads its variables: each [Ast.Var] node of
    the program, by physical identity, with the position of its [$]. *)
type reads

(** {!parse}, also returning the program's {!reads}. *)
val parse_located : string -> (Ast.program * reads, error) result

(** [read_error reads read ~message] is an error positioned at the
    variable read [read], an [Ast.Var] node of the program [reads]
    came with. Raises [Not_found] for a node the parser did not
    build. *)
val read_error : reads -> Ast.expr -> message:string -> error
