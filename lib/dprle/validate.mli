(** Executable validators for the solver's correctness properties.

    The paper ships a Coq proof of the three concat-intersect
    properties (Regular / Satisfying / All Solutions) and defines RMA
    solutions by Satisfying + Maximal. This module re-states all of
    them as decidable checks over NFAs; the test suite runs them
    against randomized instances, which is this reproduction's
    substitute for the mechanized proof (see DESIGN.md §4). *)

(** One constraint of the system holds under the assignment. *)
val constraint_holds : System.t -> Assignment.t -> System.constr -> bool

(** The paper's {b Satisfying} condition: every constraint holds. *)
val satisfying : System.t -> Assignment.t -> bool

(** {1 CI properties (§3.3)} *)

(** {b Satisfying} for a CI solution:
    [⟦v1⟧ ⊆ c1 ∧ ⟦v2⟧ ⊆ c2 ∧ ⟦v1∘v2⟧ ⊆ c3]. *)
val ci_satisfying :
  c1:Automata.Nfa.t -> c2:Automata.Nfa.t -> c3:Automata.Nfa.t -> Ci.solution -> bool

(** {b All Solutions}: the union of [⟦v1∘v2⟧] over the returned
    solutions equals [(c1∘c2) ∩ c3] exactly. (The paper states ⊇; ⊆
    follows from Satisfying, so we check language equality.) *)
val ci_all_solutions :
  c1:Automata.Nfa.t ->
  c2:Automata.Nfa.t ->
  c3:Automata.Nfa.t ->
  Ci.solution list ->
  bool

(** {1 Maximality probing}

    True maximality quantifies over all regular languages; the probe
    falsifies it on witnesses: for each variable it tries to adjoin
    sample strings drawn from the constraint constants' languages
    minus the variable's language, and checks that every such
    extension breaks some constraint. A [false] result is a genuine
    counterexample to Maximal; [true] means no counterexample was
    found within the sample budget. *)
val maximal_probe : ?samples:int -> System.t -> Assignment.t -> bool

(** All disjuncts are pairwise incomparable (no solution subsumes
    another) — a consequence of Maximal for distinct solutions. *)
val pairwise_incomparable : Assignment.t list -> bool
