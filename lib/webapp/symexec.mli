(** Path-sensitive symbolic execution of mini-PHP programs into RMA
    constraint systems.

    This plays the role of the "simple prototype program analysis"
    of the paper's §4: walk every loop-free path to a sink, keep a
    symbolic store mapping locals to concatenations of string literals
    and input reads, translate each branch decision into a subset
    constraint on the inputs along it, and at every [query] sink emit
    the vulnerability query "can the issued SQL land in the attack
    language?" as one more subset constraint. The resulting system is
    exactly the paper's running example shape:

    {v   v1 ⊆ c_filter        (the taken preg_match branch)
        c_prefix ∘ v1 ⊆ c_attack   (the sink)            v}

    Solving it (with {!Dprle.Solver}) yields, per input, the full
    regular language of exploits.

    Branch languages, sanitizer transducers and the constant-folding
    test of a condition all come from {!Semantics}: the fixpoint
    ([Analysis.Absdom]) refines with the same branch handles, which is
    what makes skipping the systems of a sink it proves safe sound. *)

type query = {
  path_id : int;  (** index of the explored path *)
  sink_index : int;  (** which [query] along that path *)
  sink_id : int;
      (** {e syntactic} sink identity ({!Ast.sink_id}): stable across
          the paths reaching the same [query] statement, and shared
          with {!Analysis.Cfg} — the key static pruning filters on *)
  system : Dprle.System.t;
      (** branch + sink constraints; constants are auto-named.
          A case-mapped read appears as its own system variable
          (e.g. [x~lower]) — see [slots]. *)
  benign_system : Dprle.System.t;
      (** the same path constraints {e without} the sink obligation:
          its solutions are inputs that reach this sink innocently
          (used to recover the intended query for structural
          comparison — see {!benign_inputs}) *)
  input_vars : string list;  (** the inputs read along the path *)
  slots : (string * string * Ast.sanitizer list) list;
      (** (system variable, input it reads, pending sanitizer chain,
          outermost first — e.g. [addslashes(strtolower(x))] ↦
          [[Addslashes; Lower]]; empty for a plain read) *)
  constraint_count : int;
      (** the paper's [|C|] metric: dependency-graph edges of the
          system — one ⊆-edge per path/sink obligation plus one
          ∘-edge pair per concatenation *)
}

(** Result of path enumeration. [paths_truncated] is set whenever the
    DFS dropped work that could reach a sink: a fork past [max_paths],
    or a loop iteration past the unroll bound (16). Code that reaches no sink
    is never explored, so cutting it truncates nothing. A truncated
    enumeration with no solvable candidate does {e not} establish
    safety — callers must surface it (webcheck prints a warning;
    statically-proved sinks are unaffected since their verdict never
    relies on enumeration). *)
type exploration = {
  candidates : query list;  (** one per explored (path, sink) *)
  paths_truncated : bool;
}

(** Raised by {!analyze} and {!census} when a path reads a variable
    that no statement on it has assigned. It carries the [Ast.Var]
    node of the read, which {!Lang_parser.parse_located} can place in
    the source; [Printexc.to_string] gives
    ["unassigned variable $v"]. *)
exception Unassigned_variable of Ast.expr

(** Explore all paths to a sink and return one candidate query per
    (path, sink). The walk is sink-directed: at a fork (an [if] or
    [while] whose condition is not constant-folded) an arm whose
    continuation reaches no [query] before an [exit] is not explored
    — its obligations are not built and it costs no fork. A fork with
    at least one live arm counts once toward [max_paths] (default
    256); loops are unrolled up to 16 iterations per path. A candidate's [path_id] is the number of forks taken
    before it in DFS order. Reachability is computed once per
    statement and the symbolic store is a map, so the walk stays
    linear in the path length. Raises {!Unassigned_variable}. *)
val analyze :
  ?max_paths:int ->
  attack:Automata.Nfa.t ->
  Ast.program ->
  exploration

(** What {!analyze} would enumerate, without building it. *)
type census = {
  candidates : int;  (** [List.length (analyze …).candidates] *)
  forks : int;  (** forks taken, at most [max_paths] *)
  truncated : bool;  (** [(analyze …).paths_truncated] *)
}

(** [census] runs {!analyze}'s walk — the same function — in
    count-only mode: constant folding still follows the symbolic
    store, but no obligation, system or automaton is built. The
    prediction is exact for an {!analyze} with the same [max_paths],
    which is why it has no default; both unroll loops equally. The
    static pre-pass ([Analysis.Prepass]) predicts the executor with
    it. Like {!analyze}, it raises {!Unassigned_variable}. *)
val census : max_paths:int -> Ast.program -> census

(** Whether a solve finished inside its configured budget. *)
type budget_status =
  | Within_budget
  | Budget_exceeded of Automata.Budget.stop
      (** the solve was cut short; the verdict says nothing about
          this path/sink *)

(** How a solved candidate's verdict was established.
    - [Witnessed]: the solver produced an exploit language (and a
      concrete witness).
    - [Unknown]: no witness found — safety follows only if the
      enumeration was exhaustive (see {!exploration.paths_truncated})
      and the solve stayed within budget.

    Sinks the static fixpoint proves safe are never solved; their
    outcome is [Analysis.Pipeline.Proved_safe_statically]. *)
type provenance = Witnessed | Unknown

val pp_provenance : provenance Fmt.t

(** Structured result of solving one candidate query. *)
type verdict = {
  assignment : Dprle.Assignment.t option;
      (** [Some a]: the exploit language {e per input} — the solved
          language of each slot variable, pulled back through its
          case map and intersected across the input's slots. [None]
          with [budget = Within_budget] means this path/sink is safe
          (the constraint system is unsatisfiable — as for the fixed
          filter of §2 — or no disjunct survives the pull-back
          intersection). *)
  slot_languages : (string * Automata.Store.handle) list;
      (** the winning disjunct's language per {e slot} variable
          (before pull-back): what each transformed read may evaluate
          to at the sink. Empty when there is no exploit. *)
  budget : budget_status;
  provenance : provenance;  (** [Witnessed] or [Unknown] from {!solve} *)
}

(** Solve one candidate under [config] (default
    {!Dprle.Solver.Config.default}, unlimited budget); [config]'s
    [max_solutions] is overridden internally (1, then 16 when
    case-mapped slots make later disjuncts matter). *)
val solve : ?config:Dprle.Solver.Config.t -> query -> verdict

(** Concrete exploit inputs from a solved candidate: the shortest
    witness per constrained input, and ["a"] for inputs the path
    never constrains (mirroring the paper's [posted_userid = a]). *)
val exploit_inputs : query -> Dprle.Assignment.t -> (string * string) list

(** Per-input languages of {e benign} values: inputs that drive the
    program down the same path to the same sink, with no attack
    constraint. Running the program on their witnesses yields the
    query the programmer intended, the baseline for the structural
    injection check of {!Sql.Analysis}. [None] when the path is
    infeasible (or [config]'s budget ran out). *)
val benign_inputs :
  ?config:Dprle.Solver.Config.t -> query -> Dprle.Assignment.t option

(** [with_defaults program inputs] completes an input vector: every
    input [program] reads that [inputs] does not bind is appended
    with the value ["a"]. *)
val with_defaults : Ast.program -> (string * string) list -> (string * string) list

(** End-to-end convenience: first solvable candidate's inputs. *)
val first_exploit :
  ?max_paths:int ->
  attack:Automata.Nfa.t ->
  Ast.program ->
  (string * string) list option
