(** User-facing regex rendering.

    {!Simplify} is purely syntactic; this module adds the
    oracle-backed step: [prune_alternatives] drops alternation
    branches whose language is subsumed by a sibling's
    ([ab|a.* → a.*]). Each comparison is an automata inclusion check
    through {!Automata.Store}; reserve it for user-facing output. *)

val prune_alternatives : Ast.t -> Ast.t

(** [pretty m] = state-eliminate, simplify, prune: the nicest
    rendering of a machine's language we can produce. *)
val pretty : Automata.Nfa.t -> string
