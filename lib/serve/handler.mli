(** Request execution: one {!Api.Request.t} in, one {!Api.Response.t}
    out, in the calling domain.

    The server runs this inside {!Engine.Pool} workers, so every
    automata build and cache lookup lands in the worker's warm
    domain-local {!Automata.Store}; [dprle batch --wire] calls it
    directly in-process. Either way the contract is the same:

    - the request's [budget_ms]/[budget_states] are installed as the
      ambient {!Automata.Budget} for the {e whole} handler, so a
      hostile payload cannot hide blow-up outside the solver proper;
      exhaustion outside a solve becomes an [Error Budget_exceeded]
      payload, exhaustion inside one candidate's solve marks that
      sink [budget_exceeded];
    - a [webcheck] request runs {!Analysis.Pipeline} — the webcheck
      CLI's pipeline, pre-pass threshold included — with no scan
      budget of its own, so a budget trip inside the static fixpoint
      is one [Error Budget_exceeded] rather than "not pruning"; the
      handler only renders the plan and the solves as
      {!Api.Response.sink} records;
    - any exception becomes [Error Internal] — a handler never kills
      its worker;
    - [obs] is filled from two {!Automata.Store.hit_totals} readings
      taken {e in this domain} around the request: per-request wall
      time plus the request's own [store.intern.hit] /
      [store.opcache.hit] counts (the labeled op-cache series summed
      across operations) — what a before/after
      {!Telemetry.Metrics.Snapshot} diff would report, without
      snapshotting the registry. This is what makes warm-vs-cold store
      behaviour visible per response. *)

(** [handle ?requests req] never raises. [requests] is the completed
    request count a [Stats] request reports (the server threads its
    counter through; in-process callers can omit it). *)
val handle : ?requests:int -> Api.Request.t -> Api.Response.t

(** Loop-free path-count threshold below which webcheck requests skip
    the static fixpoint: an alias of
    {!Analysis.Prepass.default_path_budget}, the CLI's
    [--prepass-paths] default. *)
val prepass_paths : int
