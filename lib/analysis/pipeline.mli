(** The paper's §4 pipeline, up to and including the per-candidate
    solves: the one place that decides which (path, sink) systems a
    page turns into and which of them are solved.

    {!plan} runs, in order: the {!Prepass} decision (the executor's
    own walk, counted at the plan's [max_paths]), the {!Fixpoint}
    prune, the all-sinks-pruned skip (every sink proved safe ⇒ no path
    enumeration), {!Webapp.Symexec.analyze}, and the filter that drops
    candidates at statically-safe sinks. Both path layers are
    sink-directed: code that reaches no sink is neither enumerated nor
    iterated. {!solve} then solves the surviving candidates lazily, in
    enumeration order. The callers
    ([webcheck], the wire [webcheck] request, [dprle profile --corpus])
    keep only their rendering.

    {b Budget rule.} A scan budget passed to {!plan} (webcheck's
    [--budget-ms]/[--budget-states]) that trips inside the fixpoint
    degrades to "not pruning" ({!Budget_stopped}). With no scan budget
    the fixpoint runs unwrapped, so a budget installed by the caller
    (the wire request's) still propagates out of {!plan} as
    {!Automata.Budget.Exceeded} — [Budget.run Budget.unlimited] would
    swallow it. *)

(** What happened to the static fixpoint. *)
type fixpoint =
  | Disabled  (** static pruning was switched off by the caller *)
  | Skipped of string  (** the {!Prepass} judged it not worth running *)
  | Ran of Fixpoint.result
  | Budget_stopped of Automata.Budget.stop
      (** the scan budget tripped inside it; nothing was pruned *)

type t = {
  fixpoint : fixpoint;
  sinks : int;  (** sinks in the program *)
  safe_sink_ids : int list;
      (** sinks the fixpoint proved safe, ascending; empty unless
          [fixpoint] is [Ran] *)
  candidates : Webapp.Symexec.query list;
      (** the candidates at sinks not proved safe, in enumeration
          order; empty when every sink was pruned *)
  paths_truncated : bool;  (** as {!Webapp.Symexec.exploration} *)
}

(** Path bound of the webcheck CLI and [dprle profile --corpus]
    (4096, {!Prepass.default_max_paths}). The wire request carries its
    own [max_paths]. *)
val default_max_paths : int

(** [plan ?budget ?static_prune ?prepass_paths ?max_paths ~attack
    program]: [static_prune] (default [true]) enables the fixpoint;
    [prepass_paths] is {!Prepass.decide}'s [path_budget], and
    [max_paths] bounds both the pre-pass walk and the enumeration;
    [budget] (default unlimited) is the scan budget of the rule
    above. *)
val plan :
  ?budget:Automata.Budget.t ->
  ?static_prune:bool ->
  ?prepass_paths:int ->
  ?max_paths:int ->
  attack:Automata.Nfa.t ->
  Webapp.Ast.program ->
  t

(** Every sink was proved safe, so symbolic execution was skipped. *)
val all_sinks_pruned : t -> bool

(** The plan's candidates paired with their {!Webapp.Symexec.solve}
    verdicts under [config]; each solve runs when its element is
    forced, so a caller may stop at the first exploit. *)
val solve :
  ?config:Dprle.Solver.Config.t ->
  t ->
  (Webapp.Symexec.query * Webapp.Symexec.verdict) Seq.t

(** Per-sink outcome, as spelled on the wire and in [webcheck --events]. *)
type status =
  | Proved_safe_statically  (** a sink in [safe_sink_ids] *)
  | Vulnerable
  | No_exploit
  | Budget_exceeded

(** The outcome of one solved candidate (never [Proved_safe_statically]). *)
val classify : Webapp.Symexec.verdict -> status

val status_name : status -> string
