(** Instrumentation counters for the complexity experiments of §3.5
    of the paper: cost measured as NFA states visited during the
    concatenation and cross-product constructions, so the
    O(Q²)/O(Q³)/O(Q⁵) growth curves can be reproduced independently
    of wall-clock noise.

    This module is a compatibility shim over {!Telemetry.Metrics}: the
    counters live in the default metrics registry (as
    [automata.states_visited], [automata.products_built],
    [automata.concats_built]) and only ever grow. Measurement is
    diff-based — take {!absolute} before and after the region of
    interest and subtract with {!diff}; nested measurements are then
    independent. *)

(** Record [n] NFA states visited (called by {!Ops}). *)
val visit_states : int -> unit

(** Record one cross-product construction. *)
val count_product : unit -> unit

(** Record one concatenation construction. *)
val count_concat : unit -> unit

type snapshot = {
  visited : int;  (** NFA states visited by constructions *)
  products : int;  (** cross-product constructions performed *)
  concats : int;  (** concatenation constructions performed *)
}

(** Cumulative counter values since process start. Never decreases. *)
val absolute : unit -> snapshot

(** [diff after before] is the pointwise difference. *)
val diff : snapshot -> snapshot -> snapshot

val pp : snapshot Fmt.t
