(** Language operations on {!Nfa.t} machines.

    The concatenation and intersection constructions return
    {e provenance} alongside the machine: the paper's algorithms slice
    intermediate machines by the origin of their states (Fig. 3 lines
    10–12) and track sub-machine state sets across constructions
    (§3.4.3 "shared solution representation"), so callers need to map
    states of the operands into states of the result. *)

(** Result of [concat m1 m2]: a machine for [L(m1) ∘ L(m2)] built with
    a single ε-edge [bridge] from the embedded final state of [m1] to
    the embedded start state of [m2] (Fig. 3 line 6). *)
type concat_result = {
  machine : Nfa.t;
  left_embed : Nfa.state -> Nfa.state;  (** state of [m1] → state of result *)
  right_embed : Nfa.state -> Nfa.state;  (** state of [m2] → state of result *)
  bridge : Nfa.state * Nfa.state;  (** the concatenation ε-edge *)
}

val concat : Nfa.t -> Nfa.t -> concat_result

(** Like {!concat} but discards provenance. *)
val concat_lang : Nfa.t -> Nfa.t -> Nfa.t

(** Result of [intersect m1 m2]: the cross-product machine (Fig. 3
    lines 7–8), restricted to states reachable from the start pair
    (plus the final pair, which is always materialized so the machine
    has a final state even when the intersection is empty). *)
type product_result = {
  machine : Nfa.t;
  pair_of : Nfa.state -> Nfa.state * Nfa.state;
      (** component states of a product state *)
  state_of_pair : Nfa.state * Nfa.state -> Nfa.state option;
      (** inverse of [pair_of]; [None] if the pair was unreachable *)
}

val intersect : Nfa.t -> Nfa.t -> product_result

(** Like {!intersect} but discards provenance. *)
val inter_lang : Nfa.t -> Nfa.t -> Nfa.t

(** Thompson constructions. *)

val union_lang : Nfa.t -> Nfa.t -> Nfa.t

val star : Nfa.t -> Nfa.t

val plus : Nfa.t -> Nfa.t

val opt : Nfa.t -> Nfa.t

(** [repeat m ~min_count ~max_count] is [L(m){min,max}]; a [None] max
    means unbounded. Builds Θ((min + extras)·|m|) states in a single
    builder pass. *)
val repeat : Nfa.t -> min_count:int -> max_count:int option -> Nfa.t
