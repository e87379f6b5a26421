(** Per-solve instrumentation, for benches and the CLI's [--stats].

    Pairs the construction counters of {!Automata.Ops} (low-level
    states visited) with the solver-level quantities the paper's §3.5
    reasons about: how many CI-groups and concatenations a system has,
    how many ε-cut candidates each concatenation admits, and how many
    combinations were explored versus admitted. *)

(** One concatenation triple of the dependency graph together with its
    ε-cut candidate count — the per-concatenation disjunction width of
    §3.5. *)
type concat_census = {
  triple : Depgraph.concat;
  cuts : int;
}

(** NFA construction work: the [automata.states_visited],
    [automata.products_built] and [automata.concats_built] counters. *)
type work = {
  visited : int;  (** NFA states visited by constructions *)
  products : int;  (** cross-product constructions performed *)
  concats : int;  (** concatenation constructions performed *)
}

(** The graph figures describe the graph the solver proper builds
    ({!Solver.cut_census}), so every [t<i>] of the census names one of
    its concatenations. *)
type t = {
  nodes : int;  (** dependency-graph vertices *)
  subset_edges : int;
  concat_pairs : int;
  groups : int;  (** CI-groups with at least one concatenation *)
  singleton_vars : int;
  cut_candidates : int;  (** ε-cuts summed over all concatenations *)
  max_group_combinations : int;
      (** largest per-group product of cut candidates *)
  solutions : int;  (** disjuncts returned (after Maximal pruning) *)
  automata : work;
      (** NFA construction work done during this solve (snapshot diff) *)
  census : concat_census list;
      (** per-concatenation ε-cut table, in triple creation order *)
}

val pp : t Fmt.t

(** Solve and measure in one pass under [config] (default
    {!Solver.Config.default}). Returns the outcome together with the
    report, or the solver error if [config]'s budget ran out — the
    budget covers the whole measured pass, census included. The solve
    is {!Solver.run}'s. [automata] is diff-based over metrics
    snapshots taken around the solve, so nested or interleaved calls
    report independent counts. *)
val solve_with_report :
  ?config:Solver.Config.t ->
  System.t ->
  (Solver.outcome * t, Solver.Error.t) result
