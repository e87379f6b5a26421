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

    Computed on the DFA of [upper]: let [T₀] be the states reachable
    from the start via [pre] and [Good] the states [p] with
    [post ⊆ L(p → F)]; then [X] is recognized by the subset automaton
    from [T₀] that accepts exactly when the tracked set stays inside
    [Good] — a universal-acceptance subset construction.

    If [pre] or [post] is empty the occurrence constrains nothing and
    the result is Σ*. Operands and result are store handles; the
    construction is memoized on the operands' ids. *)
val max_middle :
  pre:Automata.Store.handle ->
  post:Automata.Store.handle ->
  upper:Automata.Store.handle ->
  Automata.Store.handle

(** [maximize system a] grows every variable of [a] in round-robin
    fashion to the largest language that keeps every constraint
    satisfied, holding the other variables (and other occurrences of
    the same variable) at their current value, until a fixpoint.
    Languages only grow, and each lives in the finite lattice induced
    by the constraint DFAs, so the iteration terminates. The result
    satisfies the system whenever [a] does, subsumes [a], and is
    maximal in each variable separately. *)
val maximize : System.t -> Assignment.t -> Assignment.t
