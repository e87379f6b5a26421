(** Cheap pre-pass deciding whether the {!Fixpoint} analysis is worth
    running at all.

    The fixpoint is a {e pruning} layer: it can only prove sinks safe,
    never find exploits, so skipping it never changes soundness — just
    how much work the path-sensitive pipeline does afterwards. On a
    loop-free program whose (constant-folding-aware) path count fits
    the executor's enumeration budget, symbolic execution alone is
    exact and usually cheaper than one abstract iteration per block;
    paying for both was the recorded [--static-prune] regression on
    small inputs. The pre-pass is a single linear AST walk — two taint
    passes plus a branch count — so its own cost is noise.

    The decision errs toward running the fixpoint: variables are
    tainted flow-insensitively, so a guard that merely might be
    input-dependent counts as a path doubling.

    {!Pipeline.plan} is the one caller in the program: the webcheck
    CLI, the wire [webcheck] request and [dprle profile --corpus]
    all reach the pre-pass through it, with the same threshold.

    Counters: [analysis.prepass.skip] / [analysis.prepass.run]. *)

type decision = {
  run_fixpoint : bool;
  reason : string;  (** human-readable, stable across runs *)
  sinks : int;
  has_loop : bool;
  est_paths : int;  (** forking branches only; capped at 2^20 *)
}

(** The loop-free path count at or below which symbolic execution
    alone is judged cheaper (8): the default of [decide], and so of
    [webcheck --prepass-paths] and the wire [webcheck] request. *)
val default_path_budget : int

(** [decide ?path_budget program] recommends whether to run the
    fixpoint. Skips when the program has no sinks, or is loop-free
    with at most [path_budget] (default {!default_path_budget})
    estimated paths; a
    [path_budget] of 0 disables the pre-pass (always run — the
    ablation escape hatch). *)
val decide : ?path_budget:int -> Webapp.Ast.program -> decision
