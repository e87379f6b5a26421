(** Algebraic regex simplification.

    State elimination ({!State_elim}) produces correct but noisy
    expressions; this module rewrites them into smaller equivalent
    ones. All rewrites are language-preserving (property-tested
    against the Thompson/derivative semantics).

    [simplify] is purely syntactic: flattening, deduplication,
    charset-merging in alternations, quantifier fusion on equal bases
    ([a a* → a+], [a{1,2}a{0,3} → a{1,5}]), and common prefix/suffix
    factoring ([ab|ac → a(b|c)]).

    Semantic (oracle-backed) pruning of alternation branches lives in
    {!Pretty}, which may compile machines; everything here is pure AST
    rewriting. *)

val simplify : Ast.t -> Ast.t

(** [norm r] is a single bottom-up canonicalization pass: flattening,
    branch sorting/dedup, charset merging, quantifier fusion and
    prefix/suffix factoring, all rebuilt through the smart
    constructors. {!Derivative.deriv} routes every derivative through
    it, so repeated derivation does not grow the term. Deterministic
    and language-preserving; cheaper than the [simplify] fixpoint. *)
val norm : Ast.t -> Ast.t
