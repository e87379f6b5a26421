(** Deterministic finite automata over charset-labelled edges.

    DFAs are the workhorse for the {e semantic} decision procedures
    the rest of the library relies on: language emptiness, inclusion,
    equivalence, and complementation. The RMA solver itself
    manipulates NFAs (as in the paper); DFAs appear when checking
    results, minimizing machines, and in the test oracles.

    Transition labels on a given state are pairwise disjoint; a
    missing label means the word is rejected (machines are partial —
    an implicit dead state completes them). *)

type state = int

type t

val num_states : t -> int

val start : t -> state

val is_final : t -> state -> bool

val transitions : t -> state -> (Charset.t * state) list

(** Deterministic step; [None] means the implicit dead state. *)
val step : t -> state -> char -> state option

val accepts : t -> string -> bool

(** [walk d q w] is the state reached from [q] by reading [w], [None]
    once the run falls into the implicit dead state. Each state the
    walk visits resolves its edges once into a 256-entry row, so a long
    word costs an array read per character. *)
val walk : t -> state -> string -> state option

(** {1 Conversions} *)

(** Subset construction over ε-closed NFA state sets. *)
val of_nfa : Nfa.t -> t

(** The minimal DFA of [{w}]: a chain of [|w| + 1] states, numbered
    along the word, identical to [minimize (of_nfa (Nfa.of_word w))]. *)
val of_word : string -> t

(** Single-start/single-final NFA accepting the same language. *)
val to_nfa : t -> Nfa.t

(** {1 Boolean operations} *)

(** The same language on a total machine: one non-accepting sink with
    a Σ self-loop takes every missing label. The sink is added even when
    no label is missing, as the last state. *)
val complete : t -> t

(** Complement w.r.t. Σ*; completes the machine with a sink first. *)
val complement : t -> t

val inter : t -> t -> t

val union : t -> t -> t

(** {1 Minimization} *)

(** Hopcroft partition refinement with the dead state left implicit
    (Valmari–Lehtinen): O(m·log n) for [n] states and [m]
    (state, alphabet block) transitions. The result is the canonical
    minimal partial DFA, its states numbered in the order of each
    class's least member among the trimmed input's states. *)
val minimize : t -> t

(** {1 Decision procedures} *)

val is_empty_lang : t -> bool

(** Hopcroft–Karp style pairwise equivalence check. *)
val equiv : t -> t -> bool

(** [subset a b] iff [L(a) ⊆ L(b)]. *)
val subset : t -> t -> bool

(** A word in [L(a) \ L(b)], if any. *)
val counterexample : t -> t -> string option

(** Shortest accepted word, if the language is nonempty. *)
val shortest_word : t -> string option

(** Up to [max_count] accepted words of length at most [max_len],
    shortest first, concretizing labels with {!Charset.choose}. *)
val sample_words : t -> max_len:int -> max_count:int -> string list

val to_dot : ?name:string -> t -> string

val pp_summary : t Fmt.t
