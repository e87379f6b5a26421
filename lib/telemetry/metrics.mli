(** Metrics registry: named counters, gauges, histograms, and timers
    with labeled dimensions, read out as immutable {!Snapshot}s.

    Counters only ever grow; cost attribution is done by taking a
    snapshot before and after a region and calling {!Snapshot.diff} —
    unlike reset-bracketed globals, concurrent or nested measurements
    cannot corrupt each other (each holds its own [before]).

    Metrics register in the {!default} registry unless an explicit
    registry is given (tests use private registries). Registering the
    same name twice returns the same metric; re-registering under a
    different kind raises [Invalid_argument].

    The default registry is {e domain-local}: a metric made without
    [?registry] resolves its cells in the calling domain's registry,
    once per domain (a [Domain.DLS] slot made at [make]), so engine
    workers count into private registries with no synchronization and
    an update never looks its metric up by name. A [?registry]-pinned
    metric writes its registry from whichever domain updates it. After joining its workers the engine
    folds their snapshots back with {!Snapshot.absorb}, so a snapshot
    of the main domain's registry accounts for the whole batch. *)

type labels = (string * string) list

type registry

val create_registry : unit -> registry

(** The calling domain's default registry — the one the solver's
    instrumentation uses when no explicit registry is given. *)
val default : unit -> registry

(** Global switch for all duration measurement ({!Timer.time},
    {!Timer.observe_ns}, and the store ledger's clock reads). On by
    default; bench flips it off to price the instrumentation itself.
    Set from the main domain before worker domains spawn. *)
val set_timing_enabled : bool -> unit

module Counter : sig
  type t

  val make : ?registry:registry -> string -> t
  val incr : ?labels:labels -> t -> int -> unit

  (** Current cumulative value (mainly for tests; prefer snapshots). *)
  val value : ?labels:labels -> t -> int

  (** Sum over every label set in the calling domain's cells (or the
      pinned registry's) — {!Snapshot.counter_total} of a snapshot of
      that registry, without taking one. Counters only grow, so two
      readings bracket a region's count. *)
  val total : t -> int
end

module Gauge : sig
  (** Instantaneous values that may go up or down (pool occupancy,
      queue depth). Snapshot [diff] passes the latest reading through;
      [absorb] keeps the maximum across domains. *)
  type t

  val make : ?registry:registry -> string -> t
  val set : ?labels:labels -> t -> int -> unit
  val add : ?labels:labels -> t -> int -> unit
  val value : ?labels:labels -> t -> int
end

module Histogram : sig
  type t

  (** [buckets] defaults to 1-2-5 decades from 1 to 10⁶. *)
  val make : ?registry:registry -> ?buckets:float array -> string -> t
  val observe : ?labels:labels -> t -> float -> unit
end

module Timer : sig
  (** Monotonic-clock duration accounting. Timers nest: each series
      records call count, cumulative [total_ns], cumulative [self_ns]
      (total minus time spent in timers opened inside it, on the same
      domain), and the maximum single duration. The open-timer stack
      is domain-local, so engine workers time independently and their
      series fold back through {!Snapshot.absorb} like counters.

      When {!set_timing_enabled} is off, [time f] runs [f] with no
      clock reads and records nothing. *)
  type t

  val make : ?registry:registry -> string -> t

  (** [time t f] runs [f], recording its duration against [t] (and
      excluding it from the enclosing timer's self time). Exceptions
      propagate; the duration is recorded either way. *)
  val time : ?labels:labels -> t -> (unit -> 'a) -> 'a

  (** Record an externally-measured duration as a leaf: it books fully
      as self time and is charged as child time to the innermost open
      [time] frame. Used by the store ledger, which brackets with raw
      {!Clock.now_ns} reads to keep memo-lookup overhead minimal. *)
  val observe_ns : ?labels:labels -> t -> int64 -> unit

  val count : ?labels:labels -> t -> int
  val total_ns : ?labels:labels -> t -> int64
end

module Snapshot : sig
  type histogram_stat = {
    count : int;
    sum : float;
    max : float;  (** largest observed value; [neg_infinity] when count = 0 *)
    buckets : (float * int) list;  (** (upper bound, occupancy); +∞ last *)
  }

  type timer_stat = {
    count : int;
    total_ns : int64;
    self_ns : int64;
    max_ns : int64;
  }

  type t

  val take : registry -> t
  val of_default : unit -> t

  (** Pointwise [after - before]; series absent from [before] pass
      through unchanged. Gauges report [after]'s reading; histogram
      and timer maxima are running maxima (a region's own max is not
      recoverable from two cumulative readings). A histogram or timer
      series that recorded nothing inside the region is dropped: only
      its running maximum would survive the subtraction. *)
  val diff : after:t -> before:t -> t

  val counters : t -> (string * labels * int) list
  val gauges : t -> (string * labels * int) list
  val histograms : t -> (string * labels * histogram_stat) list
  val timers : t -> (string * labels * timer_stat) list

  (** Value of one counter series, 0 if absent. *)
  val counter_value : ?labels:labels -> t -> string -> int

  (** Sum of a counter over all its label sets, 0 if absent. *)
  val counter_total : t -> string -> int

  (** One timer series, if present. *)
  val timer_stat : ?labels:labels -> t -> string -> timer_stat option

  (** Fold a snapshot (typically taken in a worker domain just before
      it exits) into a live registry — the calling domain's default
      unless [?registry] is given. Counter and timer series add;
      histogram series add pointwise; gauges keep the maximum. Used by
      the engine so per-batch metrics reflect work done on every
      worker. *)
  val absorb : ?registry:registry -> t -> unit

  (** Zero-count interior histogram buckets are elided, but the +Inf
      overflow bucket is always explicit so tail drift is diffable. *)
  val to_json : t -> Json.t

  (** Deterministic text dump: counters, gauges, histogram
      count/sum/max, and timer {e call counts} only — never
      nanoseconds, so cram tests stay stable. *)
  val pp : t Fmt.t
end
