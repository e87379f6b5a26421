(** Language-level decision procedures lifted to NFAs.

    Inclusion and equivalence run {e on the fly}: the LHS NFA is
    searched against determinized-on-demand subsets of the RHS, one
    minterm class at a time, exiting at the first counterexample —
    neither operand is fully determinized (after Keil & Thiemann's
    symbolic inequality solving). The [*_reference] versions keep the
    original determinize-both procedure as a cross-check oracle. *)

val equal : Nfa.t -> Nfa.t -> bool

(** [subset a b] iff [L(a) ⊆ L(b)]. *)
val subset : Nfa.t -> Nfa.t -> bool

(** A word of [L(a) \ L(b)], if any. *)
val counterexample : Nfa.t -> Nfa.t -> string option

(** {1 Reference implementations}

    Decide via full determinization of both operands ({!Dfa.of_nfa}
    on each side). Semantically identical to the unsuffixed versions;
    used by the randomized cross-check suite. *)

val equal_reference : Nfa.t -> Nfa.t -> bool

val subset_reference : Nfa.t -> Nfa.t -> bool

val is_empty : Nfa.t -> bool

(** [L(a) \ L(b)] as an NFA. *)
val difference : Nfa.t -> Nfa.t -> Nfa.t

(** Language-preserving state reduction: trims, then determinizes and
    minimizes if that shrinks the machine. Used for the minimization
    ablation of the paper's §4 discussion. *)
val compact : Nfa.t -> Nfa.t
