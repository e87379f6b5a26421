(** Language-level operations on NFAs.

    Inclusion runs {e on the fly}: the LHS NFA is searched against
    determinized-on-demand subsets of the RHS, one minterm class at a
    time, exiting at the first counterexample — neither operand is
    fully determinized (after Keil & Thiemann's symbolic inequality
    solving). The program asks it through {!Store}, which memoizes
    each answer; equality is inclusion both ways. *)

(** A word of [L(a) \ L(b)], if any: [None] iff [L(a) ⊆ L(b)]. *)
val counterexample : Nfa.t -> Nfa.t -> string option

(** [L(a) \ L(b)] as an NFA. *)
val difference : Nfa.t -> Nfa.t -> Nfa.t

(** Language-preserving state reduction: trims, then determinizes and
    minimizes if that shrinks the machine. Used for the minimization
    ablation of the paper's §4 discussion. *)
val compact : Nfa.t -> Nfa.t
