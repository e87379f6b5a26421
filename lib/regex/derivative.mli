(** Brzozowski-derivative matching.

    An automaton-free membership test, used by the concrete evaluator
    and symbolic execution to run [preg_match] checks on concrete
    strings, and as the reference oracle against which the Thompson
    compiler is property-tested. Language queries (inclusion,
    equality, emptiness, disjointness) are not answered here: they go
    to {!Automata.Store}'s automata kernels. *)

(** Does the regex accept the empty string? *)
val nullable : Ast.t -> bool

(** [deriv c r] is the Brzozowski derivative: a regex for
    [{ w | c·w ∈ L(r) }]. Output is in {!Simplify.norm} rewrite
    normal form. *)
val deriv : char -> Ast.t -> Ast.t

(** Membership by repeated derivation. *)
val matches : Ast.t -> string -> bool

(** Pattern-level matching with [preg_match] substring semantics. *)
val pattern_matches : Ast.pattern -> string -> bool
