(** Interned language store: hash-consed {!Nfa.t} handles with
    memoized automata operations.

    The paper's pathological row (`secure`, Fig. 12) is driven by
    re-processing the same constant machines once per path and per
    solve; §4 suggests minimization/caching as the fix. This module is
    that caching substrate. A {!handle} names a machine in a
    {e domain-local} intern table keyed by a {e canonical key} — the pruned
    ({!Nfa.trim}med) machine serialized under a deterministic
    breadth-first renumbering, so structurally equal machines (up to
    dead states and state numbering) share one handle. Equal keys
    imply isomorphic trimmed machines and therefore equal languages.

    Each handle carries memo slots for the expensive unary questions
    (determinization, minimization, emptiness), and the binary
    operations ([inter]/[concat]/[union]/[subset]/[equal]/
    [counterexample]) go through bounded LRU caches keyed on handle-id
    tuples. Cache behaviour is observable through the
    [store.intern.{hit,miss}] and [store.opcache.{hit,miss,evict}]
    counters (the op-cache ones labelled [op=...]) and the
    [store.machine.states] histogram (sizes of newly interned
    machines), and ablatable: {!set_enabled}[ false] (the binaries'
    [--no-cache]) turns every entry point into a transparent
    passthrough that computes exactly what the un-stored code would.

    Call sites that need {e provenance} — the paper's sub-NFA slicing
    invariant in [Ops.concat]/[Ops.intersect] — must keep operating on
    raw [Nfa.t] values: a handle's representative machine is the first
    machine interned under its key, so state identities of a specific
    construction are not preserved across the store.

    {b Domains.} The store is deliberately not shared across engine
    workers: every domain gets its own intern table and its own memo
    tables (no locks on the solve hot path; a worker's caches die with
    its domain). Handles must therefore never cross a domain boundary
    — each job interns what it needs inside its worker. The same holds
    for every value that carries handles: a [Dprle.System.t] binds each
    constant to one, and a solution binds each variable to one, so
    [batch], [webcheck] and [serve] parse or build each system inside
    the worker that solves it and hand back only rendered results.
    Handle ids remain globally unique, and the enable switch applies
    process-wide (set it before spawning workers). *)

type handle

(** {1 Interning} *)

(** Intern a machine, returning its shared handle. When the store is
    disabled this is a fresh passthrough handle wrapping [m] itself
    (no key is computed).

    Interning follows one size rule (see {!section-gate}): a machine
    of at most 256 states is canonically keyed, so every structurally
    equal build of it shares one handle; a larger one comes back as a
    fresh handle that is shared only with repeated interns of the same
    physical machine, through a small pointer-equality MRU (sound
    because {!Nfa.t} is immutable). Each over-ceiling intern counts
    [store.gate.skip{op=intern}]. *)
val intern : Nfa.t -> handle

(** [of_word w] = the interned handle of [Nfa.of_word w], served from
    the per-domain text table keyed by [w] itself — no machine
    rebuild, no canonical key after the first ask. The fast path for
    constant hot loops (abstract interpretation re-evaluating the same
    literal every iteration). A table hit counts as an intern hit. *)
val of_word : string -> handle

(** [of_pattern text build] = [intern (build ())], served from the
    same text table as {!of_word} under a key of its own for [text]:
    a warm store answers a repeated [/pattern/] without parsing,
    compiling or keying it again. [build] must be a function of [text]
    alone; an exception it raises propagates and caches nothing. A
    table hit counts as an intern hit. The table is per domain, reset
    by {!clear} and bypassed when the store is disabled (then every
    call builds a fresh handle). *)
val of_pattern : string -> (unit -> Nfa.t) -> handle

(** [Some w] iff the handle came out of [of_word w] (its language is
    exactly [{w}]); [None] says nothing about the language. O(1). *)
val word : handle -> string option

(** The key {!intern} files a machine under: its {!Nfa.trim}med form
    serialized under a breadth-first renumbering that visits each
    state's edges by (label, old destination). Equal keys imply
    isomorphic trimmed machines, hence equal languages. One sort of
    each state's edges, no allocation per edge. *)
val canonical_key : Nfa.t -> string

(** The interned handle of [Nfa.sigma_star] (Σ*, the implicit top of
    the analysis domain), cached per domain. Counts as an intern
    hit. *)
val top : unit -> handle

(** The handle's representative machine: the first machine interned
    under its canonical key (language-equal to every machine since
    merged into it). *)
val nfa : handle -> Nfa.t

(** Dense id, unique per process. Handles with equal ids denote the
    same interned machine; use ids as memo keys ({!Memo}). *)
val id : handle -> int

(** {1 Memoized unary operations} *)

(** Determinization of the handle's machine, computed once. *)
val dfa : handle -> Dfa.t

(** Minimized DFA ([Dfa.minimize] of the determinization, or
    [Dfa.of_word] of a {!word}), computed once. The {!dfa} slot is read
    if present, never filled. *)
val min_dfa : handle -> Dfa.t

(** [Lang.compact] of the handle's machine, computed once. *)
val minimized : handle -> Nfa.t

(** Language emptiness, computed once. *)
val is_empty : handle -> bool

(** The interned handle of the machine's minimal DFA, computed (and
    canonically keyed) once per handle. The analysis layer's value
    compaction calls this once per refine/join — without the slot it
    would re-pay the canonical key of the minimized machine on every
    visit even when {!min_dfa} hits. Only the result is kept: the
    {!dfa} and {!min_dfa} slots are read if present, never filled. *)
val compacted : handle -> handle

(** {1 Cached binary operations}

    Results are themselves interned, so algebraically convergent
    expressions share handles across different operation paths.

    A pair is memoized only when both operand handles are keyed (not
    over-ceiling fresh handles — a never-repeating id fills the table
    with unreachable entries); any other pair counts
    [store.gate.skip{op=...}] and is recomputed.

    These are the language queries of the whole codebase: every
    inclusion, equality, emptiness and disjointness question is
    answered here, by the automata kernels, as in the paper's
    procedure. *)

val inter_lang : handle -> handle -> handle

val concat_lang : handle -> handle -> handle

val union_lang : handle -> handle -> handle

(** A word of [L(a) \ L(b)], if any (cached; {!subset} and {!equal}
    answer from the same cache line). *)
val counterexample : handle -> handle -> string option

val subset : handle -> handle -> bool

val equal : handle -> handle -> bool

(** [L(a) ∩ L(b) = ∅]: emptiness of the (cached) product. *)
val disjoint : handle -> handle -> bool

(** {1 Generic memoization}

    Bounded LRU tables (4096 entries each; a full table evicts its
    least-recently-used half in one batch) keyed on handle-id lists,
    sharing the store's enable switch and [store.opcache.*] counters
    (labelled with [op]). Higher layers (the solver's concat-intersect, the
    residual construction) register their own caches here without the
    store needing to know their value types. *)

module Memo : sig
  type 'v t

  (** [create ~op] registers a new table; [op] labels its counters
      and must be unique per call site. The table participates in
      {!clear}. *)
  val create : op:string -> 'v t

  (** [find_or_compute t ~key f] returns the cached value for [key],
      or runs [f], caches, and returns. When the store is disabled
      this is just [f ()]. *)
  val find_or_compute : 'v t -> key:int list -> (unit -> 'v) -> 'v
end

(** {1 Cache-effectiveness ledger}

    Derived view over a metrics snapshot: per op, what the cache's
    hits actually avoided versus what every caller paid to ask. The
    raw material is recorded by the store itself — the
    [store.ledger.key{op=...}] timer brackets keying/lookup work
    (canonical-key serialization for [intern], table lookup for memo
    ops; paid on hit and miss alike) and [store.ledger.miss{op=...}]
    brackets the computation a hit would have skipped. *)

module Ledger : sig
  type row = {
    op : string;
    hits : int;
    misses : int;
    key_ns : int64;  (** total keying/lookup time *)
    miss_ns : int64;  (** total compute time of misses *)
    avg_miss_ns : float;  (** [miss_ns / misses]; 0 when no misses *)
    net_saved_ns : float;
        (** [hits·avg_miss_ns − key_ns]: negative means the cache
            costs more than it saves on this workload *)
  }

  (** One row per op present in the snapshot ([store.opcache.*] memo
      tables plus ["intern"]), most negative [net_saved_ns] first. *)
  val of_snapshot : Telemetry.Metrics.Snapshot.t -> row list

  (** Fixed-width table, header plus one line per row. *)
  val pp : row list Fmt.t
end

(** The calling domain's running totals of [store.intern.hit] and
    [store.opcache.hit] (every [op] summed), as [(intern, opcache)]:
    two counter readings, no snapshot. Worker counts are in them once
    {!Telemetry.Metrics.Snapshot.absorb} has folded the workers back
    in. A request's hit counts are the difference of two readings. *)
val hit_totals : unit -> int * int

(** {1 Lifecycle} *)

(** [true] iff interning and caching are active (the default). *)
val enabled : unit -> bool

(** Turn the store on or off. Turning it off also {!clear}s it, so an
    ablation run ([--no-cache]) holds no stale state. *)
val set_enabled : bool -> unit

(** Drop the calling domain's intern and text tables and every
    op-cache (outstanding handles stay valid; their memo slots are
    unaffected). Benchmarks call this between arms. *)
val clear : unit -> unit

(** Register an external cache-reset hook to run on every {!clear} —
    for higher-layer caches of handles (e.g. the analysis layer's
    condition-language table) that must not outlive the store state
    they were built from. Call at module-init time, before any worker
    domain exists. *)
val on_clear : (unit -> unit) -> unit

(** {1:gate Cost gate}

    The store keys a machine by its canonical form only when it has at
    most 256 states. The canonical key serializes the whole trimmed
    machine, so its cost grows with the machine while a memo hit's
    value does not; past the ceiling the key would be the most expensive
    thing the store does. The rule is a size, never a timing, so every
    counter the store emits is a function of the workload alone. There
    are no tuning knobs: {!set_enabled} is the store's only setter. *)
