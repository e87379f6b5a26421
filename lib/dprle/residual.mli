(** Residual (quotient-style) languages used to maximalize solutions.

    The RMA definition requires {e Maximal} assignments, and the
    paper's worked examples (§3.1.1) show merged disjuncts such as
    [v1 ↦ x(yy|yyyy)] that are strictly larger than any single ε-cut
    slice. The solver therefore closes each sliced solution under
    "grow one variable as far as the others allow", which needs the
    middle residual below. *)

(** [max_middle ~pre ~post ~upper] is the largest language [X] with
    [pre ∘ X ∘ post ⊆ upper]:

    {v X = { w | ∀u ∈ pre, ∀u' ∈ post.  u·w·u' ∈ upper } v}

    Computed on the completed DFA of [upper]: let [T₀] be the states
    reachable from the start via [pre] and [Good] the states [p] with
    [post ⊆ L(p → F)]; then [X] is recognized by the subset automaton
    from [T₀] that accepts exactly when the tracked set stays inside
    [Good] — a universal-acceptance subset construction. [Good] comes
    from one product of [post]'s DFA with [upper]'s, explored from
    every [(post start, p)], and one backward sweep from the pairs
    where [post] accepts and [upper] rejects: [p] is good exactly when
    the sweep does not reach [(post start, p)]. No per-state
    determinization or inclusion check is made. When [pre] is a
    literal ({!Automata.Store.word} is [Some w]), [T₀] is the one state
    reached by walking [w]'s characters, with no product search.

    If [pre] or [post] is empty the occurrence constrains nothing and
    the result is Σ*. Operands and result are store handles; the
    construction is memoized on the operands' ids. *)
val max_middle :
  pre:Automata.Store.handle ->
  post:Automata.Store.handle ->
  upper:Automata.Store.handle ->
  Automata.Store.handle

(** [run leaves] is the language of the concatenation of [leaves], in
    order, built by the one rule every [pre·v·post ⊆ C] side follows:
    {!Automata.Store.of_word}[ ""] (ε) for no leaves, the leaf's own
    handle for one leaf, one {!Automata.Store.of_word} of the joined
    text when every leaf has a {!Automata.Store.word} (so
    {!max_middle} walks the word), and otherwise a left fold of
    {!Automata.Store.concat_lang} from the first leaf. The rule only
    picks a representation: {!max_middle}'s machine depends on [pre]
    and [post] through their languages alone (the state set [T₀] and
    the set [Good] of [upper]'s completed DFA), so no bound changes
    with it. *)
val run : Automata.Store.handle list -> Automata.Store.handle

(** [bound ~pre ~post ~upper] is the largest [X] with
    [run pre ∘ X ∘ run post ⊆ upper]: [upper] itself when both runs are
    empty, otherwise {!max_middle} over the two runs. *)
val bound :
  pre:Automata.Store.handle list ->
  post:Automata.Store.handle list ->
  upper:Automata.Store.handle ->
  Automata.Store.handle

(** The occurrence index of a system: for each variable, the
    union-free alternatives of the constraints it occurs in, with its
    positions there. Built in one pass over the system, so growing a
    variable reads only its own occurrences. *)
type index

val index : System.t -> index

(** Distinct variables in the index. *)
val vars : index -> int

(** Variable occurrences in the index, over every union-free
    alternative. *)
val occurrences : index -> int

(** The closed form of an index's constant-prefixed variables: each
    variable whose every occurrence is the last leaf of its
    alternative, after constants only ([c1·…·ck·v ⊆ C], k ≥ 0), paired
    with the meet, in constraint order, of its {!bound}s
    [bound ~pre:[c1; …; ck] ~post:[] ~upper:C]. Such a variable shares
    no constraint with another, so the values satisfying its
    constraints are closed under union and the meet is its one maximal
    value. Variables come in {!System.variables} order; each meet is
    computed when forced, so a caller can stop at the first empty
    one. *)
val closed_form : index -> (string * Automata.Store.handle Lazy.t) list

(** [maximize (index system) a] grows every variable of [a] in
    round-robin fashion to the largest language that keeps every
    constraint satisfied, holding the other variables (and other
    occurrences of the same variable) at their current value, until a
    fixpoint. Languages only grow, and each lives in the finite lattice
    induced by the constraint DFAs, so the iteration terminates. The
    result satisfies the system whenever [a] does, subsumes [a], and is
    maximal in each variable separately. Build the index once per
    system and apply it to each disjunct. Each growth is validated
    against the whole system and counted in
    [solver.maximize.growth{outcome=accepted|rejected}]. *)
val maximize : index -> Assignment.t -> Assignment.t
