(** Systems of subset constraints over regular languages — the input
    language of the decision procedure (grammar of Fig. 2 of the
    paper):

    {v
      S ::= E ⊆ C          subset constraint
      E ::= E ∘ E | C | V   concatenation of constants and variables
    v}

    Constants are named regular languages; variables are free. A
    system is the conjunction of its constraints. *)

type expr =
  | Const of string  (** reference to a defined constant *)
  | Var of string
  | Concat of expr * expr
  | Union of expr * expr
      (** the §3.1.2 extension: [(e1|e2) ⊆ c ≡ e1 ⊆ c ∧ e2 ⊆ c];
          solved by distributing over concatenation and splitting the
          constraint (see {!expand_unions}) *)

type constr = { lhs : expr; rhs : string  (** constant name *) }

(** Rewrite an expression into union-free alternatives: unions split,
    and distribute over concatenation ([(a|b)∘c → a∘c, b∘c]). A
    constraint [e ⊆ c] is equivalent to the conjunction of
    [e' ⊆ c] over the alternatives [e']. The expansion is exponential
    in the number of nested unions — the price of the encoding, noted
    in DESIGN.md. *)
val expand_unions : expr -> expr list

(** The [Const]/[Var] leaves of a union-free alternative (an element
    of {!expand_unions}), left to right. Raises [Invalid_argument] on
    a [Union]. *)
val leaves : expr -> expr list

(** Variables occurring in an expression, sorted, each once. *)
val expr_variables : expr -> string list

type t

(** {1 Construction} *)

(** [make ~consts ~constraints] checks that every constant reference
    resolves and that no name is both a constant and a variable.
    Constant names must be unique. The goal set starts empty; see
    {!with_goals}.

    Each constant is bound to the {!Automata.Store} handle it is given,
    which is how the solver's modules pass it on: a language is keyed
    once, when its builder interns it, and never again because it
    crossed a function boundary. Handles are domain-local, so a
    [System.t] is too: build it in the domain that solves it. *)
val make :
  consts:(string * Automata.Store.handle) list ->
  constraints:constr list ->
  (t, string) result

val make_exn :
  consts:(string * Automata.Store.handle) list -> constraints:constr list -> t

(** [with_goals t gs] declares the variables whose values the caller
    actually queries (the [goal] statement of the surface syntax); the
    pre-solve analyzer's cone-of-influence slicing keys on them, and
    an empty list means "everything is a goal". Goals are
    deduplicated; raises [Invalid_argument] if one names a constant. *)
val with_goals : t -> string list -> t

(** Convenience constructors for constant languages. *)

val const_of_regex : string -> Automata.Store.handle
(** [const_of_regex "a(b|c)*"] — exact (fully anchored) language.
    Raises [Invalid_argument] on a malformed regex. *)

val const_of_pattern : string -> Automata.Store.handle
(** [const_of_pattern "/[\\d]+$/"] — the language {e accepted} by a
    [preg_match]-style check, honoring its anchors. *)

val const_of_word : string -> Automata.Store.handle
(** Singleton language. *)

(** {1 Accessors} *)

val constants : t -> (string * Automata.Store.handle) list

val constraints : t -> constr list

(** Declared goal variables, declaration order, deduplicated. *)
val goals : t -> string list

(** [with_constraints t cs] is [t] with its constraint list replaced —
    constants (with their handles) and goals are shared with [t]. No
    validation is re-run; the intended use is shrinking to a subset of
    [constraints t] (slices, unsat cores). *)
val with_constraints : t -> constr list -> t

(** The handle a constant is bound to, so the solver's memoized
    operations key on it across disjuncts and across solves. Raises
    [Invalid_argument] on an unknown name. *)
val const_handle : t -> string -> Automata.Store.handle

(** Variables occurring anywhere in the system, sorted. *)
val variables : t -> string list

(** Number of constraints. *)
val size : t -> int

(** {1 Printing} *)

val pp_expr : expr Fmt.t

val pp_constr : constr Fmt.t

val pp : t Fmt.t
