(** Thompson compilation of regexes to single-start/single-final
    ε-NFAs, the machine format the solver consumes.

    Compiled machines are interned through {!Automata.Store}: the
    returned NFA is the store's representative for its language key,
    so repeated compilations of the same (or structurally equivalent)
    regex yield physically shared machines and downstream memoized
    operations hit across them. With the store disabled ([--no-cache])
    compilation returns the raw Thompson machine unchanged. *)

val to_nfa : Ast.t -> Automata.Nfa.t

(** The store handle whose machine {!to_nfa} returns, for callers
    that go on to memoized store operations. *)
val handle : Ast.t -> Automata.Store.handle

(** Language of inputs {e accepted by} a [preg_match]-style check: an
    unanchored side is padded with Σ*, so e.g. the paper's faulty
    [/[\d]+$/] compiles to [Σ* · [0-9]+] — every string that merely
    {e ends} with digits. *)
val pattern_to_nfa : Ast.pattern -> Automata.Nfa.t

(** The store handle whose machine {!pattern_to_nfa} returns, for
    callers that go on to memoized store operations (one intern, not
    a second one of the already-interned machine). *)
val pattern_handle : Ast.pattern -> Automata.Store.handle

(** [pattern_of_text text] = [pattern_handle] of the parsed [text]
    ({!Parser.parse_pattern} syntax), keyed on a warm store by [text]
    itself through {!Automata.Store.of_pattern}: a repeated pattern is
    neither parsed, nor compiled, nor canonically keyed again. *)
val pattern_of_text : string -> (Automata.Store.handle, Parser.error) result
