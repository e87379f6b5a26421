(** Parallel batch-solve engine.

    [map] fans a list of jobs out over a pool of OCaml 5 domains and
    merges the results {e deterministically}: the returned list is in
    submission order regardless of worker count or scheduling, so any
    output rendered from it is byte-identical for [--jobs 1] and
    [--jobs N]. (Timing lives in {!stats} and in [elapsed_ns]; keep it
    out of deterministic output.)

    Isolation per worker comes from the domain-local design of the
    layers below: each worker domain gets its own {!Automata.Store}
    intern/memo tables, its own {!Telemetry.Span} stack, and its own
    {!Telemetry.Metrics} default registry — no locks, no sharing.
    After each batch the engine absorbs every worker's metrics
    snapshot into the caller's default registry, and hands back the
    per-worker span trees for a multi-lane Chrome trace
    ({!Telemetry.Span.to_chrome_json_lanes}).

    For repeated batches, {!Pool} keeps the worker domains (and their
    warm domain-local stores) alive between calls instead of paying a
    [Domain.spawn] per batch. [map] itself remains the one-shot
    convenience wrapper: it builds a transient pool and shuts it down.

    NFA handles from a {!Automata.Store} must not cross domains, and a
    parsed [Dprle.System.t] holds them; jobs should take plain inputs
    (paths, texts) and parse or build their systems inside [f]. *)

module Budget = Automata.Budget

(** A job or worker that raised: the printed exception plus the
    recorded backtrace when [Printexc.record_backtrace] was on (and
    nonempty) at the raise site. *)
type failure = { message : string; backtrace : string option }

(** Result of one job. [Budget_exceeded] carries the {!Budget.stop}
    that ended it, surfaced structurally so one pathological job
    degrades gracefully instead of sinking the batch.
    [Failed] carries the failure of a job that raised — also contained
    to that job. *)
type 'a outcome =
  | Done of 'a
  | Budget_exceeded of Budget.stop
  | Failed of failure

type 'a job_result = {
  index : int;  (** submission index; results come back sorted by it *)
  outcome : 'a outcome;
  elapsed_ns : int64;  (** per-job wall clock *)
  worker : int;
      (** which worker lane ran it (0-based); [-1] for a job whose
          worker died before writing a result *)
}

type stats = {
  workers : int;  (** pool size actually used *)
  jobs : int;
  wall_ns : int64;  (** whole-batch wall clock *)
  worker_spans : (string * Telemetry.Span.t) list;
      (** one finished span tree per worker, labelled ["worker-k"] —
          only when a trace collection was open at [map] time, and
          only on the parallel path (with one worker, job spans nest
          directly into the caller's trace) *)
}

(** Persistent worker pool: the domains (and their domain-local
    intern/memo stores) survive across {!Pool.map} calls, so constants
    shared by consecutive batches are warm-cache hits instead of
    rebuilds, and the per-batch [Domain.spawn] cost is paid once at
    {!Pool.create}.

    A pool has a single producer: at most one {!Pool.map} may be in
    flight at a time (calls from the owning thread are naturally
    serialized; do not share a pool between threads). *)
module Pool : sig
  type t

  (** [create ~size ()] spawns [max 1 size] worker domains parked
      until the first batch. [name] (default ["pool"]) prefixes worker
      span names for batches that don't override it. *)
  val create : ?name:string -> size:int -> unit -> t

  val size : t -> int

  (** [false] once {!shutdown} has run. *)
  val alive : t -> bool

  (** Run one batch on the pool — same contract as {!Engine.map}
      (submission-order results, per-job budgets, absorbed worker
      snapshots, span lanes) with two pool-specific behaviors: worker
      stores stay warm from previous batches, and [weight] (optional)
      schedules jobs in descending-weight claim order so a skewed mix
      can't strand the tail on one worker. Metrics absorbed after a
      batch are per-batch diffs, never cumulative re-counts.

      If a {e worker} (not a job — job exceptions are already trapped
      per-job) dies mid-batch, every job it stranded comes back as
      [Failed] carrying the first worker failure, and the surviving
      workers' snapshots are still merged: no partial, half-raised
      merge, no leaked domains.

      @raise Invalid_argument if the pool was shut down. *)
  val map :
    ?budget:Budget.t ->
    ?name:string ->
    ?weight:('a -> int) ->
    t ->
    f:(int -> 'a -> 'b) ->
    'a list ->
    'b job_result list * stats

  (** Stop and join all worker domains. Idempotent. Joins {e all}
      domains even when one re-raises; the first failure is re-raised
      only after every domain has been joined, so none leak. *)
  val shutdown : t -> unit

  (** [with_pool ~size f] = [create]; [f pool]; [shutdown] under
      [Fun.protect] — the pool is joined even if [f] raises. *)
  val with_pool : ?name:string -> size:int -> (t -> 'r) -> 'r
end

(** [map ~f items] runs [f worker item] for every item.

    [jobs] (default [Domain.recommended_domain_count ()]) caps the
    pool; a pool larger than the job list is trimmed. With [jobs = 1]
    everything runs inline in the calling domain. [budget] (default {!Budget.unlimited}) is
    installed afresh around {e each} job, so a wall-clock deadline is
    per-job, not per-batch. [name] (default ["batch"]) prefixes worker
    span names. [weight] orders the claim queue as in {!Pool.map}.

    Jobs are claimed from a shared counter, so which worker runs which
    job is nondeterministic — but the result list is always in
    submission order. The parallel path is a transient {!Pool}: spawn,
    one batch, shutdown (joined under [Fun.protect]). *)
val map :
  ?jobs:int ->
  ?budget:Budget.t ->
  ?name:string ->
  ?weight:('a -> int) ->
  f:(int -> 'a -> 'b) ->
  'a list ->
  'b job_result list * stats

(** [pp_outcome pp_done] prints [Done v] with [pp_done] and the three
    failure modes as ["budget exceeded: timeout"], ["budget exceeded:
    state budget exhausted"], ["internal failure: <message>"] (the
    backtrace, if captured, is not printed here — surface it behind a
    trace flag). *)
val pp_outcome : 'a Fmt.t -> 'a outcome Fmt.t
