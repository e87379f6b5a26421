(** The scrapeable [/metrics] surface: a {!Telemetry.Metrics.Snapshot}
    rendered in Prometheus text exposition format. Dotted metric names
    map to underscores ([store.intern.hit] → [store_intern_hit]);
    histograms contribute [_count]/[_sum] series, timers [_calls] and
    [_seconds_total]. Series are sorted, so two snapshots of the same
    registry state render byte-identically. *)

val render : Telemetry.Metrics.Snapshot.t -> string

(** The calling domain's counter series for the wire [stats] report,
    in the registry's pp spelling ([store.opcache.hit{op=inter_lang}])
    and sorted. It snapshots the whole registry, so it belongs to the
    [stats] request only, never to per-request accounting. *)
val stats_counters : unit -> (string * int) list

(** Exposed for tests. *)
val sanitize : string -> string
