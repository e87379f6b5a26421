(** Nondeterministic finite automata with ε-transitions.

    Following the paper (§3.2), every machine has a {e single} start
    state and a {e single} final state; the concat-intersect algorithm
    depends on this invariant, and all constructors here maintain it.
    Transitions are labelled by {!Charset.t}, so a machine over a
    large alphabet stays small.

    Values of type {!t} are immutable once built. States are dense
    integers [0 .. num_states-1], which lets callers attach side
    tables (the solver tracks sub-machine state sets this way). *)

type state = int

module StateSet : Set.S with type elt = state

type t

(** {1 Accessors} *)

val num_states : t -> int

val start : t -> state

val final : t -> state

val states : t -> state list

(** Outgoing character transitions of a state. *)
val char_transitions : t -> state -> (Charset.t * state) list

(** Outgoing ε-transitions of a state. *)
val eps_transitions_from : t -> state -> state list

(** [has_eps_edge m p q] iff [q ∈ δ(p, ε)]. Backed by a lazily-built
    hash index over the ε-edges, so repeated queries (the Ci cut scan)
    are O(1) after the first. *)
val has_eps_edge : t -> state -> state -> bool

val fold_char_transitions :
  t -> init:'a -> f:('a -> state -> Charset.t -> state -> 'a) -> 'a

(** {1 Re-rooting (the paper's "induce" operations)}

    [induce_from_final m q] is a copy of [m] with [q] marked as the
    only final state; [induce_from_start m q] re-marks the start
    state. These implement lines 13–14 of Fig. 3 of the paper. *)

val induce_from_final : t -> state -> t

val induce_from_start : t -> state -> t

(** {1 Construction} *)

module Builder : sig
  type b

  val create : unit -> b

  val add_state : b -> state

  (** [add_states b k] allocates [k] fresh states, returning the first. *)
  val add_states : b -> int -> state

  val add_trans : b -> state -> Charset.t -> state -> unit

  val add_eps : b -> state -> state -> unit

  (** [add_machine b m] copies [m]'s states and edges onto fresh
      states, returning the offset added to [m]'s state ids. Equivalent
      to adding every edge of [m] in order, but the copied lists are
      already duplicate-free, so [finish] does not re-check them. *)
  val add_machine : b -> t -> state

  (** Freeze. Each state's character edges (and, apart, its ε-edges)
      come out in add order, with only the newest copy of a duplicate
      kept — character edges are duplicates when destination and label
      are equal. Raises [Invalid_argument] if [start]/[final] are not
      allocated states. *)
  val finish : b -> start:state -> final:state -> t
end

(** The empty language ∅. *)
val empty_lang : t

(** The language [{ε}]. *)
val epsilon_lang : t

(** Single-character language for a (nonempty) charset. *)
val of_charset : Charset.t -> t

(** The language [{w}]. *)
val of_word : string -> t

(** Σ* — the initial assignment for every variable node (§3.4.2). *)
val sigma_star : t

(** {1 Language queries} *)

(** ε-closure of a set of states. *)
val eps_closure : t -> StateSet.t -> StateSet.t

(** One simulation step: ε-closure after consuming [c]. The input set
    is assumed ε-closed. *)
val step : t -> StateSet.t -> char -> StateSet.t

val accepts : t -> string -> bool

(** [true] iff the machine accepts no string. *)
val is_empty_lang : t -> bool

(** {1 Dense reachability}

    Breadth-first searches that return a byte-per-state visited
    vector — O(1) membership, no per-query ordered-set construction.
    Callers that answer many membership questions against one search
    (the solver's ε-cut emptiness filter) use these. *)

module Flags : sig
  type set

  val mem : set -> state -> bool
end

(** States reachable from [q] (inclusive) following any transition. *)
val reachable_flags : t -> state -> Flags.set

(** States from which [q] is reachable (inclusive). *)
val coreachable_flags : t -> state -> Flags.set

(** A shortest accepted string, or [None] if the language is empty.
    Charset labels are concretized with {!Charset.choose}. *)
val shortest_word : t -> string option

(** Up to [max_count] accepted strings in nondecreasing length order,
    each no longer than [max_len]. *)
val sample_words : t -> max_len:int -> max_count:int -> string list

(** {1 Transformations} *)

(** Remove states that are not both reachable from the start and
    co-reachable to the final state, compacting ids in their original
    order. The result accepts the same language. Returns the renaming
    as an array indexed by old id: the new id, or [-1] for a removed
    state. *)
val trim : t -> t * state array

(** Disjoint embedding of [m2]'s states after [m1]'s: returns a
    builder preloaded with both machines' transitions and the offset
    added to [m2]'s state ids. Shared by the concat/union/product
    constructions in {!Ops}. *)
val embed_two : t -> t -> Builder.b * int

(** {1 Output} *)

(** One-line summary: state/transition/ε-edge counts. *)
val pp_summary : t Fmt.t
