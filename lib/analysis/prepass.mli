(** Pre-pass deciding whether the {!Fixpoint} analysis is worth running
    at all.

    The fixpoint is a {e pruning} layer: it can only prove sinks safe,
    never find exploits, so skipping it never changes soundness — just
    how much work the path-sensitive pipeline does afterwards. When
    symbolic execution enumerates every path to a sink and emits only
    a few candidates, it is exact and cheaper than the fixpoint;
    paying for both was the recorded [--static-prune] regression.

    The prediction is the executor's own: {!Webapp.Symexec.census}
    runs the sink-directed walk of {!Webapp.Symexec.analyze} in
    count-only mode (constant folding included, no obligations and no
    automata), bounded by the same [max_paths] forks. The fixpoint is
    skipped if and only if that walk finishes untruncated with at most
    [path_budget] candidates. A loop whose unrolling runs out of fuel
    before a sink, or a page with too many paths, truncates the walk,
    so the fixpoint runs there. So does a page whose walk reads a
    variable it never assigned (symbolic execution would raise): the
    fixpoint reads it as any string and may prove every sink safe.

    {!Pipeline.plan} is the one caller in the program: the webcheck
    CLI, the wire [webcheck] request and [dprle profile --corpus]
    all reach the pre-pass through it, with the same threshold.

    Counters: [analysis.prepass.skip] / [analysis.prepass.run]. *)

type decision = {
  run_fixpoint : bool;
  reason : string;
      (** human-readable, stable across runs, naming the three
          figures below, e.g. ["exhaustive walk, 1 candidate in 29 forks"] *)
  sinks : int;
  candidates : int;  (** candidates the walk predicts; 0 when disabled *)
  forks : int;  (** forks the walk took, at most [max_paths] *)
  truncated : bool;
      (** the walk cut a fork that could reach a sink, or failed *)
}

(** The candidate count at or below which symbolic execution alone is
    judged cheaper (8): the default of [decide], and so of
    [webcheck --prepass-paths] and the wire [webcheck] request. *)
val default_path_budget : int

(** The enumeration's fork bound (4096): [decide]'s default, and
    {!Pipeline.default_max_paths}, the webcheck CLI's [--max-paths]. *)
val default_max_paths : int

(** [decide ?path_budget ?max_paths program] recommends whether to run
    the fixpoint ahead of a {!Webapp.Symexec.analyze} bounded by
    [max_paths] (default {!default_max_paths}). Skips when the walk
    finishes untruncated with at most [path_budget] (default
    {!default_path_budget}) candidates; a [path_budget] of 0 disables
    the pre-pass (always run, no walk — the ablation escape hatch). *)
val decide : ?path_budget:int -> ?max_paths:int -> Webapp.Ast.program -> decision
