(** Pre-solve lint over constraint systems: a view over the
    {!Analyze} refutation plus cheap structural checks that catch
    authoring errors and predict solver blow-ups before any machine
    is built.

    All language queries go through the interned store
    ({!Automata.Store}), so repeated lints of overlapping systems
    (e.g. per-candidate solves in webcheck) re-use memoized
    emptiness/inclusion results.

    Checks:
    - [empty-rhs] ({e warning}) — a constraint's right-hand constant
      denotes ∅, forcing its whole left side empty.
    - [unsat-core] ({e warning}) — the {!Analyze} pre-solve passes
      refute the system; the finding carries the minimal explaining
      constraint core. This is the lint's one unsatisfiability
      verdict: a failing constant-only alternative is one of the
      analyzer's refutations ({!Analyze.Const_expr}).
    - [unconstrained-var] ({e info}) — a variable with no direct
      ⊆-edge in the dependency graph, bounded only through
      concatenations.
    - [ci-cycle] ({e info}) — a CI-group whose ∘-edge pairs share a
      variable: the §3.5 worst case (multiplying ε-cut combinations)
      is reachable.

    {!Solver.run} auto-emits the [empty-rhs] findings to the log
    (stderr) before solving — the cheap check that flags a likely
    authoring bug. The [dprle lint] subcommand prints everything. *)

type severity = Warning | Info

type finding = { severity : severity; check : string; message : string }

val pp_severity : severity Fmt.t

(** Rendered as ["warning: [check] message"]. *)
val pp_finding : finding Fmt.t

(** All checks, in the order listed above. *)
val lint : System.t -> finding list

(** The [empty-rhs] check — what {!Solver.run} emits; one memoized
    emptiness query per constraint. *)
val quick : System.t -> finding list
