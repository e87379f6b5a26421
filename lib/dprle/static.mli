(** Pre-solve lint over constraint systems: cheap static checks that
    catch authoring errors and predict solver blow-ups before any
    machine is built.

    All language queries go through the interned store
    ({!Automata.Store}), so repeated lints of overlapping systems
    (e.g. per-candidate solves in webcheck) re-use memoized
    emptiness/inclusion results.

    Checks:
    - [empty-rhs] ({e warning}) — a constraint's right-hand constant
      denotes ∅, forcing its whole left side empty.
    - [const-contradiction] ({e warning}) — a constant-only
      alternative of some left side is not included in its bound: the
      system is unsatisfiable, decided by one memoized inclusion.
    - [unsat-core] ({e warning}) — the {!Analyze} pre-solve passes
      refute the system; the finding carries the minimal explaining
      constraint core.
    - [unconstrained-var] ({e info}) — a variable with no direct
      ⊆-edge in the dependency graph, bounded only through
      concatenations.
    - [ci-cycle] ({e info}) — a CI-group whose ∘-edge pairs share a
      variable: the §3.5 worst case (multiplying ε-cut combinations)
      is reachable.

    {!Solver.run} auto-emits the [empty-rhs] and
    [const-contradiction] findings to the log (stderr) before solving
    — the cheap checks that flag likely authoring bugs. The
    [dprle lint] subcommand prints everything. *)

type severity = Warning | Info

type finding = { severity : severity; check : string; message : string }

val pp_severity : severity Fmt.t

(** Rendered as ["warning: [check] message"]. *)
val pp_finding : finding Fmt.t

(** All checks. Builds a {!Depgraph.t} unless one is supplied. *)
val lint : ?graph:Depgraph.t -> System.t -> finding list

(** The [empty-rhs] and [const-contradiction] checks — what
    {!Solver.run} emits; O(number of alternatives) memoized
    emptiness/inclusion queries. *)
val quick : System.t -> finding list
