(** Hierarchical tracing spans.

    Instrumentation points wrap their work in {!with_span}; when no
    trace is being collected this costs one list-emptiness check, so
    the instrumentation can stay on permanently. A caller that wants a
    trace wraps the whole computation in {!collect} and receives the
    finished span tree, exportable as Chrome [trace_event] JSON
    ({!to_chrome_json}, load in [chrome://tracing] or Perfetto) or as
    an indented text tree ({!pp_tree}).

    Spans nest dynamically: a [with_span] entered while another span
    is open becomes its child. The span stack is domain-local: each
    engine worker collects its own tree without synchronization, and
    the per-worker trees are merged into one trace as separate lanes
    by {!to_chrome_json_lanes}. Exceptions close spans correctly. *)

type attr = [ `Int of int | `Float of float | `String of string | `Bool of bool ]

(** A finished span: name, attributes, and duration, with children in
    execution order. *)
type t

val name : t -> string
val attrs : t -> (string * attr) list
val duration_ns : t -> int64

val children : t -> t list

(** [true] while a {!collect} scope is open in the calling domain. *)
val enabled : unit -> bool

(** [collect ~name f] runs [f] with tracing enabled, wrapping it in a
    span named [name]; returns [f ()]'s result and the finished span
    tree. Inside an outer [collect] it simply nests (and additionally
    returns the sub-tree). *)
val collect : ?attrs:(string * attr) list -> name:string -> (unit -> 'a) -> 'a * t

(** [with_span ~name f] runs [f] inside a child span when tracing is
    enabled, or calls [f] directly (no allocation) when it is not. *)
val with_span : ?attrs:(string * attr) list -> name:string -> (unit -> 'a) -> 'a

(** Like {!collect}, but delivers the finished span tree to [emit] on
    {e both} the normal and the exceptional path (with the children
    recorded so far), then lets any exception continue unwinding.
    This is the flush-on-crash primitive behind [--trace]: an
    interrupted or failing run still leaves its partial trace behind.
    [emit] runs inside the [Fun.protect] finaliser, so it should not
    itself raise. *)
val collect_emit :
  ?attrs:(string * attr) list -> name:string -> emit:(t -> unit) -> (unit -> 'a) -> 'a

(** Attach an attribute to the innermost open span, for values only
    known mid-phase (e.g. a cut census discovered during the phase).
    No-op when tracing is disabled. *)
val add_attr : string -> attr -> unit

(** Chrome [trace_event] export: a ["traceEvents"] array of complete
    ("ph":"X") events, timestamps in microseconds relative to the
    root. *)
val to_chrome_json : ?pid:int -> ?tid:int -> t -> Json.t

val to_chrome_string : ?pid:int -> ?tid:int -> t -> string

(** [to_chrome_json_lanes ~lanes root] exports [root] on tid 1 plus
    one additional lane (tid 2, 3, ...) per [(label, tree)] in
    [lanes], all against a common time base — the earliest start
    across every tree — so concurrent worker activity lines up in the
    viewer. Each lane carries a ["thread_name"] metadata event with
    its label. *)
val to_chrome_json_lanes : ?pid:int -> lanes:(string * t) list -> t -> Json.t

(** Indented text tree: one line per span with duration and
    attributes, children indented two spaces. *)
val pp_tree : t Fmt.t
