(* Instrumentation counters for the complexity experiments of §3.5 of
   the paper, kept as a thin compatibility shim over the
   {!Telemetry.Metrics} registry. The underlying counters are
   cumulative and process-wide; scoping is done by diffing snapshots
   ({!absolute} + {!diff}), so nested measurements cannot corrupt each
   other. *)

module Metrics = Telemetry.Metrics

let c_visited = Metrics.Counter.make "automata.states_visited"
let c_products = Metrics.Counter.make "automata.products_built"
let c_concats = Metrics.Counter.make "automata.concats_built"

let visit_states n = Metrics.Counter.incr c_visited n
let count_product () = Metrics.Counter.incr c_products 1
let count_concat () = Metrics.Counter.incr c_concats 1

type snapshot = {
  visited : int;  (* NFA states visited by constructions *)
  products : int; (* cross-product constructions performed *)
  concats : int;  (* concatenation constructions performed *)
}

let absolute () =
  {
    visited = Metrics.Counter.value c_visited;
    products = Metrics.Counter.value c_products;
    concats = Metrics.Counter.value c_concats;
  }

let diff after before =
  {
    visited = after.visited - before.visited;
    products = after.products - before.products;
    concats = after.concats - before.concats;
  }

let pp ppf s =
  Fmt.pf ppf "visited=%d products=%d concats=%d" s.visited s.products s.concats
