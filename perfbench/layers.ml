(* Per-layer metrics of one traced rep, from two sources only: the
   spans the benchmark opens around its own calls into each module
   (named [bench:*]), and the diff of the counters and timers the
   libraries register. Times are per item unless the name says
   otherwise; counts named [_per_item] or listed as [count/item] are
   divided by the items in the rep. *)

module Snapshot = Telemetry.Metrics.Snapshot

type rep = {
  items : int;
  spans : (string * float) list;  (** bench span name → total ms *)
  diff : Snapshot.t;
  candidates : int;
  constraints_in : int;
}

let span_totals root =
  let totals = Hashtbl.create 16 in
  let rec walk s =
    let name = Telemetry.Span.name s in
    if String.starts_with ~prefix:"bench:" name then begin
      let key = String.sub name 6 (String.length name - 6) in
      let ms = Int64.to_float (Telemetry.Span.duration_ns s) /. 1e6 in
      Hashtbl.replace totals key (ms +. Option.value ~default:0. (Hashtbl.find_opt totals key))
    end;
    List.iter walk (Telemetry.Span.children s)
  in
  walk root;
  List.of_seq (Hashtbl.to_seq totals)

let ns_ms ns = Int64.to_float ns /. 1e6

(* Sum of a series over every label set (or the one set given). *)
let counter ?labels d name =
  List.fold_left
    (fun acc (n, l, v) -> if n = name && (labels = None || labels = Some l) then acc + v else acc)
    0 (Snapshot.counters d)

let timer ?labels ~self d name =
  List.fold_left
    (fun acc (n, l, (t : Snapshot.timer_stat)) ->
      if n = name && (labels = None || labels = Some l) then
        acc +. ns_ms (if self then t.self_ns else t.total_ns)
      else acc)
    0. (Snapshot.timers d)

let histogram ~labels d name =
  List.find_map
    (fun (n, l, (h : Snapshot.histogram_stat)) -> if n = name && l = labels then Some h else None)
    (Snapshot.histograms d)

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* (name, unit, value). Times are medians over the traced reps, the
   rest come from the first traced rep. *)
type metric = string * string * float

let times r : metric list =
  let per x = x /. float_of_int r.items in
  let span n = per (Option.value ~default:0. (List.assoc_opt n r.spans)) in
  let phase p = per (timer ~labels:[ ("phase", p) ] ~self:false r.diff "solver.phase") in
  [ ("bench.item_ms", "ms", span "item");
    ("webapp.parse_ms", "ms", span "webapp.parse");
    ("analysis.prepass_ms", "ms", span "analysis.prepass");
    ("analysis.fixpoint_ms", "ms", span "analysis.fixpoint");
    ("webapp.symexec_ms", "ms", span "webapp.symexec");
    ("webapp.sink_solve_ms", "ms", span "webapp.sink_solve");
    ("webapp.confirm_ms", "ms", span "webapp.confirm");
    ("api.decode_us", "us", 1000. *. span "api.decode");
    ("api.encode_us", "us", 1000. *. span "api.encode");
    ("serve.handler_ms", "ms", span "serve.handler");
    ("solver.analyze_ms", "ms", per (timer ~labels:[ ("phase", "analyze") ] ~self:true r.diff "solver.phase"));
    ("solver.reduce_ms", "ms", phase "reduce");
    ("solver.build_machines_ms", "ms", phase "build-machines");
    ("solver.gci_ms", "ms", phase "gci");
    ("solver.maximize_ms", "ms", phase "maximize");
    ("automata.intersect_ms", "ms", per (timer ~self:true r.diff "automata.ops.intersect"));
    ("automata.determinize_ms", "ms", per (timer ~self:false r.diff "automata.dfa.determinize"));
    ("automata.minimize_ms", "ms", per (timer ~self:false r.diff "automata.dfa.minimize"));
    ("store.key_ms", "ms", per (timer ~self:true r.diff "store.ledger.key"));
    ("store.symbolic_ms", "ms", per (timer ~labels:[ ("tier", "symbolic") ] ~self:false r.diff "store.tier.time"));
    ("store.automata_ms", "ms", per (timer ~labels:[ ("tier", "automata") ] ~self:false r.diff "store.tier.time")) ]

let counts r : metric list =
  let d = r.diff in
  let per x = float_of_int x /. float_of_int r.items in
  let products = histogram ~labels:[ ("dir", "out") ] d "automata.product.states" in
  let combinations = histogram ~labels:[] d "solver.group_combinations" in
  let sum = function Some (h : Snapshot.histogram_stat) -> h.sum | None -> 0. in
  let analyzed =
    counter d "analyze.discharged" + counter d "analyze.sliced.constraints" + counter d "analyze.refuted"
  in
  [ ("analysis.fixpoint_iterations", "count/item", per (counter d "analysis.fixpoint.iterations"));
    ("analysis.prune_yield", "ratio", ratio (counter d "analysis.prune.hit") (counter d "analysis.prune.miss"));
    ("webapp.candidates", "count/item", per r.candidates);
    ("analyze.yield", "ratio",
      if r.constraints_in = 0 then 0. else float_of_int analyzed /. float_of_int r.constraints_in);
    ("solver.group_combinations", "count/item", sum combinations /. float_of_int r.items);
    ("automata.product_states", "states/item", sum products /. float_of_int r.items);
    (* a running maximum: the snapshot diff cannot isolate one rep's
       own maximum, so this is the largest product since start-up *)
    ("automata.product_states_max", "states",
      match products with Some h when h.count > 0 -> h.max | _ -> 0.);
    ("store.intern_miss_per_item", "count/item", per (counter d "store.intern.miss"));
    ("store.opcache_miss_per_item", "count/item", per (counter d "store.opcache.miss"));
    ("store.intern_hit_ratio", "ratio", ratio (counter d "store.intern.hit") (counter d "store.intern.miss"));
    ("store.opcache_hit_ratio", "ratio", ratio (counter d "store.opcache.hit") (counter d "store.opcache.miss"));
    ("store.opcache_evictions", "count/item", per (counter d "store.opcache.evict"));
    ("store.symbolic_share", "ratio", ratio (counter d "store.tier.symbolic") (counter d "store.tier.automata"));
    ("store.gate_tripped", "count", float_of_int (counter d "store.gate.tripped")) ]

(* Counter series (name and labels) whose values differ between the
   first traced rep and any later one of the same batch: a counter
   that depends on timing. *)
let timing_dependent first others =
  let series d =
    List.map (fun (n, l, v) -> ((n, l), v)) (Snapshot.counters d)
  in
  let a = series first.diff in
  let keys = List.sort_uniq compare (List.concat_map (fun r -> List.map fst (series r.diff)) (first :: others)) in
  List.filter
    (fun k ->
      let v0 = Option.value ~default:0 (List.assoc_opt k a) in
      List.exists (fun r -> Option.value ~default:0 (List.assoc_opt k (series r.diff)) <> v0) others)
    keys
  |> List.map (fun (n, l) ->
         match l with
         | [] -> n
         | l -> n ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "}")
