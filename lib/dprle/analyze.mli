(** Pre-solve static analysis over constraint systems: everything the
    decision procedure can learn from the dependency structure
    (§3.4.1, Fig. 5 of the paper) {e before} any group machine is
    built.

    Four passes, in order:

    + {b normalization} — maximal runs of ≥2 constant leaves in an
      alternative fold into one fresh constant, and structurally
      duplicate constraints dedup. Constants keep the names they were
      written with: two differently written constants with one
      language stay two names (the bounds pass meets them), so an
      unsat core names the constraints as written;
    + {b bounds propagation} — a worklist fixpoint computes a regular
      upper bound per variable: the meet of its direct ⊆-edge
      constants together with the universal residuals
      [{w | pre·w·post ⊆ c}] contributed by single-variable
      alternatives ({!Residual.bound}); multi-variable
      alternatives are then checked forward by concatenating leaf
      bounds. An empty variable bound, a constant-only alternative
      that fails its inclusion, or a forward concatenation disjoint
      from its bound each refute the system outright;
    + {b discharge} — a constraint all of whose alternatives are
      implied by the bounds the {e other} constraints impose is
      dropped: the solver never sees it;
    + {b cone-of-influence slicing} — with goal variables declared
      (({!System.goals} or [~goals]); an empty goal set disables the
      pass), connected components of the variable-sharing relation
      that contain no goal are satisfied once by a singleton witness
      per variable (shortest word of its bound) and dropped; the
      witnesses re-join the solver's assignments so solutions stay
      total.

    Soundness: a discharged constraint is implied by the remaining
    system (every admissible assignment keeps each variable inside
    its upper bound, and variables are nonempty by the RMA
    semantics), and a sliced component is variable-disjoint from the
    rest — the conjunction splits, and the component was proved
    satisfiable — so both passes preserve the Sat/Unsat verdict.
    Refutations are sound because bounds only over-approximate.

    When a pass refutes, the explaining constraint subset is shrunk
    delta-debugging style ({!minimize_core}) to a 1-minimal core.

    All language queries go through {!Automata.Store}, and the loops tick the ambient
    {!Automata.Budget}, so analysis of pathological systems degrades
    to [Budget.Exceeded] exactly like the solver proper. *)

(** Why the analyzer refuted. {!Solver} maps these onto its
    [unsat_reason] constructors. *)
type cause =
  | Empty_var of string
      (** the variable's upper bound (direct constants ∩ residuals)
          is the empty language *)
  | Bound_empty of string
      (** the rendered multi-variable alternative whose forward bound
          is disjoint from its right-hand constant *)
  | Const_expr of string
      (** the rendered constant-only alternative that fails its
          inclusion *)

val pp_cause : cause Fmt.t

type refute = {
  cause : cause;
  core : System.constr list;
      (** 1-minimal refuting subset of the normalized constraints, in
          system order *)
}

(** Per-variable upper-bound summary, for reports. *)
type bound = {
  contributions : int;  (** direct ⊆-edges + residual occurrences *)
  witness : string option;
      (** shortest word of the bound; [None] iff the bound is empty *)
}

type stats = {
  folded : int;  (** constant-run leaves folded into fresh constants *)
  deduped : int;  (** duplicate constraints dropped *)
  discharged : int;  (** trivially-satisfied constraints dropped *)
  sliced_vars : string list;  (** variables dropped by the slice, sorted *)
  sliced_constraints : int;  (** constraints dropped by the slice *)
}

type t = {
  system : System.t;
      (** the normalized, discharged, sliced system the solver should
          consume; meaningless when [refute] is [Some _] *)
  refute : refute option;
  witnesses : (string * string) list;
      (** singleton assignments for sliced-away variables, to re-join
          solver solutions; sorted by variable *)
  bounds : (string * bound) list Lazy.t;
      (** per variable, sorted; computed when forced, under the store
          and budget current then *)
  stats : stats;
}

(** Run all four passes. [goals] is prepended to the system's own
    {!System.goals}. *)
val run : ?goals:string list -> System.t -> t

(** [minimize_core ~check core] shrinks [core] — for which
    [check core] must already hold — to a 1-minimal sublist by
    attempting to drop each element in turn (the ddmin reduction
    phase). A [check] raising {!Automata.Budget.Exceeded} aborts the
    search and returns the current (still refuting, possibly
    non-minimal) candidate. *)
val minimize_core :
  check:(System.constr list -> bool) ->
  System.constr list ->
  System.constr list
