(** Attack languages: regular approximations of "this SQL query is
    subverted", used as the right-hand side of the sink constraint.

    The paper (§3.2) uses "contains at least one quote" — the common
    approximation it cites from Wassermann–Su — as [c3]; the other
    languages here refine it for the example programs and the
    ablation benches. *)

(** Strings containing an unescaped single quote — the paper's
    default approximation ([Σ*'Σ*]). *)
val contains_quote : Automata.Nfa.t

(** A quote followed by an OR-tautology, e.g. [' OR 1=1]. *)
val tautology : Automata.Nfa.t

(** A statement separator followed by a destructive keyword
    ([; DROP …]). *)
val stacked_drop : Automata.Nfa.t

(** Strings with an odd number of {e unescaped} single quotes: the
    value breaks out of a quote-delimited SQL literal. The right
    attack language for sinks that interpolate {e inside} quotes,
    where {!contains_quote} would fire on the template's own
    delimiters. *)
val unbalanced_quote : Automata.Nfa.t

(** Named registry for the CLI/corpus: [lookup "quote"] etc. Besides
    the languages above it names ["comment"], an SQL comment tail
    ([-- …] at the end), and ["any"], the union of all of them. *)
val lookup : string -> Automata.Nfa.t option

val names : string list
