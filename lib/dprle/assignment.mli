(** Assignments of regular languages to the variables of a system.
    Each variable is bound to an {!Automata.Store} handle, the form in
    which the solver's modules pass languages to each other. *)

type t

val of_list : (string * Automata.Store.handle) list -> t

val find : t -> string -> Automata.Store.handle

val find_opt : t -> string -> Automata.Store.handle option

(** [union a b] binds every variable of [a] and of [b]; where both
    bind one, [b]'s binding wins, as in [of_list (bindings a @ bindings
    b)]. Merging disjoint assignments costs O(m log(n/m + 1)), not a
    rebuild of both. *)
val union : t -> t -> t

val bindings : t -> (string * Automata.Store.handle) list

val variables : t -> string list

(** [subsumes a b] iff [a] is pointwise ⊇ [b] on [b]'s variables —
    i.e. [b] adds nothing. Used to discard non-maximal disjuncts. *)
val subsumes : t -> t -> bool

(** Semantic equality: same variables, same languages. *)
val equal : t -> t -> bool

(** Drop every assignment pointwise subsumed by another in the list
    (keeping the first of semantically equal ones); preserves order. *)
val prune_subsumed : t list -> t list

(** A concrete witness string per variable (shortest), e.g. to print a
    testcase. [None] if some language is empty. Witnesses, samples and
    {!pp} all read a binding's {!Automata.Store.minimized} machine. *)
val witness : t -> (string * string) list option

(** Up to [n] sample strings for one variable. *)
val samples : t -> string -> n:int -> string list

(** Renders each binding as a regex via state elimination. *)
val pp : t Fmt.t

(** Terse one-line form: [v1 ↦ shortest-witness, …]. *)
val pp_witnesses : t Fmt.t
