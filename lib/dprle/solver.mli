(** The decision procedure for general systems of subset constraints
    (§3.4 of the paper).

    Pipeline, mirroring the paper's:

    + decide constant-only alternatives by inclusion, fold multi-word
      constant runs into residual bounds, and build the dependency
      graph ({!Depgraph}) of what remains;
    + resolve {e basic} constraints — vertices with only inbound
      ⊆-edges — by NFA intersection (the [reduce] step of Fig. 7,
      lines 3–8);
    + split the remaining vertices into {e CI-groups} (nodes connected
      by ∘-edge pairs, §3.4.3) and solve each with the generalized
      concat-intersect procedure [gci] (Fig. 8), producing the
      disjunctive solutions;
    + combine per-group disjuncts into full assignments (the worklist
      of Fig. 7 materialized as a cartesian product with a cap).

    The [gci] here follows the paper's two invariants: inbound subset
    constraints are applied {e before} concatenations (operand
    machines are pre-narrowed, and each concatenation result is
    intersected with its subset constant immediately), and solutions
    share one machine per constraint tree — every group node's
    language is a {e slice} of a root machine, delimited by the
    ε-cut chosen for each concatenation (the sub-NFA tracking of
    Fig. 8). Narrowing a root machine therefore updates every
    embedded solution at once. Disjunctive solutions are exactly the
    combinations of one ε-cut per concatenation, with empty-language
    combinations rejected (as in Fig. 3 line 15) and pointwise
    subsumed assignments dropped (they would violate Maximal). *)

(** Why a system is unsatisfiable, as a machine-matchable variant.
    {!pp_unsat_reason} renders each constructor to exactly the
    diagnostic string the CLI has always printed. *)
type unsat_reason =
  | Const_expr_violation
      (** a constant-only alternative fails its subset constraint *)
  | No_cut of int
      (** concatenation [i] (index in [Depgraph.concats]) admits no
          ε-cut: its language is empty *)
  | All_combinations_empty
      (** every ε-cut combination of some CI-group forces an empty
          language (all of them were explored) *)
  | Empty_variable of string
      (** the named variable's inbound constraints intersect to ∅ *)
  | Bound_empty of string
      (** the pre-solve analyzer's forward bound for the rendered
          multi-variable alternative is disjoint from its right-hand
          constant ({!Analyze.Bound_empty}) *)

val pp_unsat_reason : unsat_reason Fmt.t

(** [pp_unsat_reason] as a string — the legacy [Unsat of string]
    payload. *)
val unsat_message : unsat_reason -> string

(** An unsatisfiability verdict with blame. [core] is a 1-minimal
    refuting subset of the (normalized) constraints when the
    pre-solve analyzer produced the verdict, and empty when the
    solver proper did — minimizing a solver-level refutation would
    mean re-solving constraint subsets; [dprle analyze] is the tool
    for that kind of blame. *)
type refutation = { reason : unsat_reason; core : System.constr list }

type outcome =
  | Sat of Assignment.t list
      (** all (deduplicated, unsubsumed) disjunctive satisfying
          assignments, at most [Config.max_solutions] of them *)
  | Unsat of refutation

(** Solve configuration for {!run}. *)
module Config : sig
  type t = {
    max_solutions : int;
        (** cap on returned disjuncts (default 256) *)
    combination_limit : int;
        (** cap on ε-cut combinations explored per CI-group (default
            4096) — the paper's §3.5 exponential worst case made
            tangible. Combinations are enumerated lazily (the paper
            notes the first solution needs no full enumeration); when
            the cap truncates the search a warning is logged and the
            returned disjunct list may be incomplete (each disjunct
            is still sound); when no combination it explored
            survived, the solve stops with
            {!Automata.Budget.Combination_limit}, never [unsat]. *)
    budget : Automata.Budget.t;
        (** resource budget installed for the duration of the solve
            (default {!Automata.Budget.unlimited}) *)
    analyze : bool;
        (** run the {!Analyze} pre-pass (default [true]): refute,
            discharge, and slice statically before any group machine
            is built; then bind every constant-prefixed variable (each
            of its union-free alternatives reads [c1·…·ck·v]) in
            closed form, the meet of its universal residuals
            ({!Residual.closed_form}), counted in
            [solver.closed_form.vars]. [false] is the ablation arm,
            the paper's pipeline: verdicts are identical either way,
            and on the closed form's systems so are the solutions
            (cram- and CI-gated) *)
    goals : string list;
        (** extra goal variables for the analyzer's cone-of-influence
            slicing, prepended to {!System.goals} (default: none) *)
  }

  val default : t

  val make :
    ?max_solutions:int ->
    ?combination_limit:int ->
    ?budget:Automata.Budget.t ->
    ?analyze:bool ->
    ?goals:string list ->
    unit ->
    t
end

(** Failures that are neither [Sat] nor [Unsat]. Budget exhaustion is
    deliberately {e not} an {!unsat_reason}: [Unsat] is a semantic
    verdict about the system, while running out of budget says
    nothing about satisfiability. *)
module Error : sig
  type t = Budget_exceeded of Automata.Budget.stop

  val pp : t Fmt.t
  val to_string : t -> string
end

(** [run config system] decides the system under [config], including
    its budget. This is the only solve entry point. It first logs the
    {!Static.quick} findings as warnings. [max_solutions = 1] is the
    first-solution mode the paper's §3.5 notes can avoid full
    enumeration. *)
val run : Config.t -> System.t -> (outcome, Error.t) result

(** Structural measurement for {!Report}: the dependency graph the
    solver proper builds for [system] under [config] (after the
    analyzer when [config.analyze], then constant-operand
    preprocessing), and, for each of its concatenations in creation
    order, the number of ε-cut candidates in its fully-built root
    machine — the per-triple disjunction width of §3.5. When the
    system is refuted before any graph is built, the graph is empty
    and so is the census. *)
val cut_census :
  Config.t -> System.t -> Depgraph.t * (Depgraph.concat * int) list
