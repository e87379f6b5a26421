(** Abstract syntax of the mini-PHP string language.

    This models the fragment of PHP that the paper's evaluation
    analyses: string manipulation with input reads, concatenation,
    [preg_match] guards, [while] loops, and database query sinks —
    the features of the Fig. 1 vulnerability plus the loops real
    applications contain. The path-sensitive symbolic executor (like
    the paper's) works on loop-free path slices obtained by bounded
    unrolling; the {!Analysis} layer handles loops soundly via
    widening. *)

(** A string transform with a transducer ({!Automata.Fst}), so a
    constraint on the transformed value pulls back to its argument
    through a regular preimage. Its meaning lives in {!Semantics}. *)
type sanitizer =
  | Lower  (** [strtolower(e)] *)
  | Upper  (** [strtoupper(e)] *)
  | Addslashes  (** [addslashes(e)] — the classic sanitizer *)
  | Replace of char * string
      (** [str_replace("c", "s", e)] with a single-character needle *)

type expr =
  | Str of string  (** string literal *)
  | Var of string  (** local variable [$x] *)
  | Input of string  (** [$_POST['name']] — attacker-controlled *)
  | Concat of expr * expr  (** PHP's [.] operator *)
  | Sanitize of sanitizer * expr

type cmp = Len_eq | Len_le | Len_ge

type cond =
  | Preg_match of Regex.Ast.pattern * expr
      (** [preg_match('/…/', e)] — the paper's central primitive *)
  | Str_eq of expr * string  (** [e == "lit"] *)
  | Strlen of expr * cmp * int
      (** [strlen(e) ==/<=/>= n] — the §3.1.2 length-restriction
          extension; compiles to the regular language [.{n}] /
          [.{0,n}] / [.{n,}] *)
  | Not of cond

type stmt =
  | Assign of string * expr  (** [$x = e;] *)
  | If of cond * stmt list * stmt list
  | While of cond * stmt list  (** [while (c) { … }] *)
  | Exit  (** [exit;] — abandons the request *)
  | Query of expr  (** [query(e);] — the SQL sink *)
  | Echo of expr  (** output; irrelevant to the analysis but
                       realistic padding in corpus programs *)

type program = stmt list

(** All input names read by the program. *)
val inputs : program -> string list

(** Number of basic blocks of the program's CFG — the paper's [|FG|]
    metric (Fig. 12). Counted as: one entry block, plus, per [If], a
    join block and one block per non-empty arm; per [While], a
    loop-head block, an exit block, and one block for a non-empty
    body. *)
val basic_blocks : program -> int

(** The program's [query] sinks in syntactic pre-order ([If]: then-arm
    before else-arm; [While]: body in order). The position of a sink
    in this list is its {e sink id} — the stable identity shared
    between the static analysis ({!Analysis.Cfg}) and the symbolic
    executor, so a verdict proved on the CFG can prune the
    corresponding path-sensitive candidates. *)
val sinks : program -> stmt list

(** Sink id of a [Query] statement, by {e physical} identity within
    [sinks program] (parsing and corpus generation allocate each
    statement freshly, and path slicing preserves sharing). [None]
    for statements not in the program. *)
val sink_id : program -> stmt -> int option

(** Source lines of the pretty-printed program, the Fig. 11 LOC
    metric. *)
val loc : program -> int

val pp_expr : expr Fmt.t

(** Render as concrete mini-PHP syntax (reparseable). *)
val to_source : program -> string
