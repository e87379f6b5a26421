(** Abstract domain for the string dataflow analysis: each local
    variable and each input name maps to a regular language (an
    {!Automata.Store} handle) over-approximating its runtime value.

    The soundness invariant: for every concrete execution reaching a
    program point with store σ and inputs ι, and every key [k],
    [σ(k) ∈ γ(state(k))] — missing keys denote Σ* (top), so anything
    the analysis has not tracked is trivially covered. Inputs are
    per-request-fixed in the concrete semantics, which is why a
    branch test on [input("n")] may soundly narrow the binding used
    by later reads of the same input.

    Join is memoized NFA union (through the store's op-cache);
    {!widen} bounds value growth so loops terminate.

    Sanitizers evaluate through {!Webapp.Semantics.fst} and branches
    refine with {!Webapp.Semantics.cond_lang}, the same handles
    {!Webapp.Symexec} turns into path obligations: the static prune
    skips a sink's path systems only because their branch languages
    are exactly the ones the fixpoint refined with. *)

type value = Automata.Store.handle

type t

(** Everything maps to Σ*. *)
val top : t

val lookup_var : t -> string -> value

val lookup_input : t -> string -> value

(** Abstract evaluation; sanitizers are transducer images
    ({!Automata.Fst.image}), so e.g. [Addslashes] maps a language to
    the exact language of its sanitized forms. *)
val eval : t -> Webapp.Ast.expr -> value

val assign : t -> string -> Webapp.Ast.expr -> t

(** Pointwise language union (least upper bound). *)
val join : t -> t -> t

(** Pointwise language inclusion (partial order). *)
val leq : t -> t -> bool

val equal : t -> t -> bool

(** [widen ~max_states ~force prev next] — an upper bound of both
    states that guarantees termination: per key, keep [prev] if
    stable, take the union while its machine stays within
    [max_states] states, and otherwise collapse to the {e alphabet
    closure} [A(L)*] (the Kleene star over the union of observed
    transition charsets). Under [force] every growing key collapses
    immediately. Closure chains ascend at most 256 steps (the
    alphabet only grows), so fixpoints at loop heads converge.
    Returns the widened state and the number of keys collapsed. *)
val widen : max_states:int -> force:bool -> t -> t -> t * int

(** [refine st value cond] assumes [cond] evaluates to [value] and
    narrows the state: a test whose operand is syntactically a
    variable or input read intersects that binding with the branch
    language ({!Webapp.Semantics.cond_lang}); other operands get a
    feasibility check only.
    [None] means the branch is infeasible (⊥). *)
val refine : t -> bool -> Webapp.Ast.cond -> t option

(** Tracked (non-top) bindings, for tests and debugging:
    [(vars, inputs)]. *)
val bindings :
  t -> (string * Automata.Nfa.t) list * (string * Automata.Nfa.t) list

val pp : t Fmt.t
