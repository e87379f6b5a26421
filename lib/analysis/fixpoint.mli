(** Worklist fixpoint over the {!Absdom} domain: the sound static
    string analysis that proves sinks safe before any RMA solve.

    Blocks are processed from a FIFO worklist; each block's stable
    entry state transfers through its instructions and flows across
    guarded edges ({!Absdom.refine}), joining at confluence points
    and {e widening} at loop heads. Widening (alphabet closure past a
    state-count threshold, forced after [widen_delay] growing visits)
    bounds every ascending chain, so the fixpoint terminates on
    arbitrary loops — the workload the path-sensitive symbolic
    executor cannot finish.

    On convergence every sink's query language is a sound
    over-approximation of all SQL strings any concrete run can issue
    there; [abstract ∩ attack = ∅] therefore proves the sink safe on
    {e all} paths, loops included.

    {b Sink-directed.} Only {e live} blocks are iterated: those from
    which a block holding a sink is reachable, found once per CFG by
    backward reachability over [Cfg.preds]. No other block is enqueued
    or joined into. This changes no sink verdict: an entry state flows
    only forward along edges, so a block that reaches no sink block
    never contributes to a sink language; and every predecessor of a
    live block is itself live, so each live block receives exactly the
    states — in the same drain order, hence with the same widening —
    as in an iteration over the whole graph. Code after a page's last
    sink therefore costs nothing.

    Runs under the ambient {!Automata.Budget} (ticked each iteration
    and inside every automata operation); callers wanting graceful
    degradation wrap the call in {!Automata.Budget.run} and treat an
    exceeded budget as "no pruning".

    Metrics: [analysis.fixpoint.iterations], [analysis.widen.count],
    [analysis.prune.hit]/[analysis.prune.miss] (sinks proved safe /
    left for symexec); span: [analysis.fixpoint], with [blocks],
    [live_blocks] and [sinks] attributes. *)

type sink_verdict = {
  sink_id : int;  (** {!Webapp.Ast.sink_id} *)
  lang : Automata.Store.handle;
      (** over-approximation of the issued query language *)
  safe : bool;  (** [lang ∩ attack = ∅] *)
}

type result = {
  verdicts : sink_verdict list;  (** one per sink, in sink-id order *)
  iterations : int;  (** live blocks processed before convergence *)
  widenings : int;  (** keys collapsed by the widening operator *)
  blocks : int;  (** all CFG blocks, live or not *)
}

(** Sinks the verdict list proves safe — the prune set. *)
val safe_sink_ids : result -> int list

(** [analyze ~attack program] builds the CFG and runs the fixpoint.
    [widen_states] (default 64) is the machine-size threshold that
    triggers alphabet closure; [widen_delay] (default 3) bounds how
    many growing visits a loop head tolerates before closure is
    forced. *)
val analyze :
  ?widen_states:int ->
  ?widen_delay:int ->
  attack:Automata.Nfa.t ->
  Webapp.Ast.program ->
  result

(** [analyze_cached] is {!analyze} behind a per-domain result cache
    keyed on the full argument tuple. The analysis is pure, so a hit
    returns the previous result verbatim — the steady-state win when
    the same page is analyzed per request (webcheck serving, bench
    passes). The cache is reset whenever the store is cleared
    (verdicts hold store handles) and never crosses domains.

    Counters: [analysis.fixpoint.cache.hit] / [.cache.miss]. *)
val analyze_cached :
  ?widen_states:int ->
  ?widen_delay:int ->
  attack:Automata.Nfa.t ->
  Webapp.Ast.program ->
  result
