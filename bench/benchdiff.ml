(* The gates of the bench record (BENCH_dprle.json). The gating rule
   mirrors what is actually deterministic in a bench run:

   - facts hold on any host: the bench checks them as it records each
     arm, and the diff checks them on the new document.
   - shape (schema string, experiment set, per-experiment fields) and
     integer fields (solver/op counters, memo hits) must match exactly
     — the same binary on the same corpus produces the same counts, so
     any drift is a real behavior change: HARD.
   - [seconds*] floats are wall clock: noisy by nature, flagged only
     past 1.5x plus an absolute noise floor, and downgradeable to
     warnings (CI runs wall-warn-only).
   - metric series compare counters exactly, histograms by
     count/sum/buckets, timers by call count only — timer nanoseconds
     are wall clock and never gated.
   - other floats (timestamps, derived speedups) are not diffed; the
     in-process ratios that are meaningful on a loaded host are gated
     against fixed bounds instead.

   Experiments whose values are nondeterministic keep only their field
   set compared: bechamel's counters are time-quota-driven, a serve
   arm's numbers are queue timing, and a parallel arm's absorbed
   worker counters depend on which domain won each job (per-domain
   memo stores make cache hits scheduling-dependent) — the last are
   compared on hosts with the cores to run the arms side by side. *)

module Json = Telemetry.Json

type severity = Hard | Warn

type finding = {
  experiment : string;
  field : string;
  detail : string;
  severity : severity;
}

type report = {
  findings : finding list;
  compared : int;
  shape_only : string list;
}

let hard_count r = List.length (List.filter (fun f -> f.severity = Hard) r.findings)
let warn_count r = List.length (List.filter (fun f -> f.severity = Warn) r.findings)
let hard experiment field detail = { experiment; field; detail; severity = Hard }

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let is_seconds_field = starts_with ~prefix:"seconds"

(* the parallel arms are meaningful only where four workers can run
   side by side *)
let parallel_gated ~cores = cores >= 4

let shape_only ~cores name =
  name = "bechamel/microbench"
  || starts_with ~prefix:"serve/" name
  || (starts_with ~prefix:"parallel/" name && not (parallel_gated ~cores))

let experiments items =
  List.filter_map
    (fun e ->
      match Json.member "name" e with
      | Some (Json.String n) -> Some (n, e)
      | _ -> None)
    items

(* ------------------------------------------------------------------ *)
(* Facts                                                              *)

(* A numeric field; NaN when absent, so every comparison on it fails *)
let num field e =
  Option.value (Option.bind (Json.member field e) Json.to_number) ~default:Float.nan

(* [key] summed over the label sets of the [kind] series [name] *)
let series_total kind key name e =
  match Option.bind (Json.member "metrics" e) (Json.member kind) with
  | Some (Json.List items) ->
      List.fold_left
        (fun acc item ->
          if Json.member "name" item = Some (Json.String name) then acc +. num key item
          else acc)
        0. items
  | _ -> Float.nan

(* (experiments read, claim, check over their records) *)
let fact name claim holds = ([ name ], claim, fun get -> holds (get name))

let ablation prefix claim holds =
  let on = prefix ^ "/on" and off = prefix ^ "/off" in
  ([ on; off ], claim, fun get -> holds (get on) (get off))

let ablation_facts prefix =
  [
    ablation prefix "equal passes, more than one" (fun on off ->
        num "passes" on = num "passes" off && num "passes" on > 1.);
    ablation prefix "on and off agree on vulnerable" (fun on off ->
        num "vulnerable" on = num "vulnerable" off);
  ]

let fact_table =
  ablation_facts "static_prune"
  @ [
      ablation "static_prune" "on solves <= off solves" (fun on off ->
          num "solves" on <= num "solves" off);
      ablation "static_prune" "on sinks_pruned > 0" (fun on _ ->
          num "sinks_pruned" on > 0.);
      ablation "static_prune" "off sinks_pruned = 0" (fun _ off ->
          num "sinks_pruned" off = 0.);
    ]
  @ ablation_facts "analyze"
  @ [
      ablation "analyze" "on solves < off solves" (fun on off ->
          num "solves" on < num "solves" off);
      fact "fig12/solving" "counter store.opcache.hit > 0"
        (fun e -> series_total "counters" "value" "store.opcache.hit" e > 0.);
    ]
  @ List.map
      (fun h ->
        fact "fig12/solving" ("histogram " ^ h ^ " populated") (fun e ->
            series_total "histograms" "count" h e > 0.))
      [ "automata.subset.visited"; "automata.bfs.frontier" ]
  @ List.concat_map
      (fun w ->
        let name = "cache_ablation/" ^ w in
        [
          fact name "opcache_hit_cached > 0" (fun e ->
              num "opcache_hit_cached" e > 0.);
          fact name "opcache_hit_uncached = 0" (fun e ->
              num "opcache_hit_uncached" e = 0.);
        ])
      [ "fig12_main"; "extension_sanitizers"; "ablation_minimize" ]
  @ List.concat_map
      (fun jobs ->
        let name = Printf.sprintf "parallel/jobs%d" jobs in
        [
          fact name (Printf.sprintf "jobs = %d" jobs) (fun e ->
              num "jobs" e = float_of_int jobs);
          fact name "speedup_vs_jobs1 > 0" (fun e -> num "speedup_vs_jobs1" e > 0.);
        ])
      [ 1; 4; 8 ]
  @ [
      fact "parallel/jobs1" "speedup_vs_jobs1 = 1" (fun e ->
          Float.abs (num "speedup_vs_jobs1" e -. 1.) < 1e-9);
      fact "parallel/pool_reuse" "batches > 1" (fun e -> num "batches" e > 1.);
      fact "serve/cold" "requests > 0" (fun e -> num "requests" e > 0.);
      fact "serve/cold" "mean_request_us > 0" (fun e -> num "mean_request_us" e > 0.);
      fact "serve/warm" "intern_hits > 0" (fun e -> num "intern_hits" e > 0.);
      fact "serve/concurrent" "throughput_rps > 0" (fun e ->
          num "throughput_rps" e > 0.);
    ]

let facts items =
  let exps = experiments items in
  let positive_walls =
    List.concat_map
      (fun (name, e) ->
        match e with
        | Json.Obj fields ->
            List.filter_map
              (fun (field, _) ->
                if is_seconds_field field && not (num field e > 0.) then
                  Some (hard name field "wall clock not positive")
                else None)
              fields
        | _ -> [])
      exps
  in
  positive_walls
  @ List.filter_map
      (fun (names, claim, holds) ->
        if not (List.for_all (fun n -> List.mem_assoc n exps) names) then None
        else if holds (fun n -> List.assoc n exps) then None
        else Some (hard (List.hd names) "fact" claim))
      fact_table

(* ------------------------------------------------------------------ *)
(* Wall-clock gates: ratios measured seconds apart in one process, so
   runner speed cancels out; each bound is fixed. Like a fact, a gate
   on an absent experiment is not checked. *)

let gates ~cores ~old_exps ~new_exps =
  let field exps name f = Option.map (num f) (List.assoc_opt name exps) in
  let on_off exps prefix =
    match
      (field exps (prefix ^ "/on") "seconds", field exps (prefix ^ "/off") "seconds")
    with
    | Some on, Some off -> Some (on /. off)
    | _ -> None
  in
  let gate run experiment what value bound =
    Option.bind value (fun v ->
        let ok, op, b =
          match bound with
          | `At_most b -> (v <= b, "<=", b)
          | `At_least b -> (v >= b, ">=", b)
          | `Above b -> (v > b, ">", b)
        in
        if ok then None
        else
          Some
            (hard experiment what
               (Printf.sprintf "%s run %.2f, gate %s %.2f" run v op b)))
  in
  List.filter_map Fun.id
    ([
       gate "new" "static_prune/on" "seconds on/off"
         (on_off new_exps "static_prune") (`At_most 1.2);
       gate "new" "analyze/on" "seconds on/off" (on_off new_exps "analyze")
         (`At_most 2.0);
       gate "old" "analyze/on" "seconds on/off" (on_off old_exps "analyze")
         (`At_most 1.75);
       gate "new" "serve/warm" "speedup_warm_vs_cold"
         (field new_exps "serve/warm" "speedup_warm_vs_cold")
         (`Above 1.0);
     ]
    @
    if not (parallel_gated ~cores) then []
    else
      [
        gate "new" "parallel/jobs4" "speedup_vs_jobs1"
          (field new_exps "parallel/jobs4" "speedup_vs_jobs1")
          (`At_least 0.9);
        gate "new" "parallel/pool_reuse" "speedup_pool_vs_spawn"
          (field new_exps "parallel/pool_reuse" "speedup_pool_vs_spawn")
          (`At_least 0.9);
      ])

(* ------------------------------------------------------------------ *)
(* Baseline diff                                                      *)

let series_key name labels_json = name ^ Json.to_string labels_json

let index_series items =
  List.filter_map
    (fun item ->
      match Json.member "name" item with
      | Some (Json.String name) ->
          (* missing labels = unlabeled series; never drop a series
             from comparison just because the field was elided *)
          let labels =
            Option.value (Json.member "labels" item) ~default:(Json.Obj [])
          in
          Some (series_key name labels, item)
      | _ -> None)
    items

let int_field key item =
  match Json.member key item with
  | Some (Json.Int i) -> string_of_int i
  | _ -> "?"

(* Counters gate on [value]; histograms and timers on the
   deterministic [count], histogram buckets riding along via their
   JSON rendering. *)
let compare_series ~add ~kind old_items new_items =
  let old_idx = index_series old_items and new_idx = index_series new_items in
  let field key = kind ^ " " ^ key in
  List.iter
    (fun (key, item) ->
      match List.assoc_opt key old_idx with
      | None -> add (field key) "series appeared"
      | Some old_item ->
          let gated = if kind = "counter" then "value" else "count" in
          let a = int_field gated old_item and b = int_field gated item in
          if a <> b then
            add
              (if kind = "counter" then field key else field key ^ " count")
              (Printf.sprintf "%s -> %s" a b);
          if kind = "histogram" then
            let buckets j =
              Option.fold ~none:"" ~some:Json.to_string (Json.member "buckets" j)
            in
            if buckets item <> buckets old_item then
              add (field key ^ " buckets") "bucket occupancy drifted")
    new_idx;
  List.iter
    (fun (key, _) ->
      if not (List.mem_assoc key new_idx) then add (field key) "series disappeared")
    old_idx

let compare_metrics ~add old_m new_m =
  let items kind doc =
    match Json.member kind doc with Some (Json.List l) -> l | _ -> []
  in
  List.iter
    (fun (kind, plural) ->
      compare_series ~add ~kind (items plural old_m) (items plural new_m))
    [ ("counter", "counters"); ("histogram", "histograms"); ("timer", "timers") ]

let compare_experiment ~values ~wall_warn_only ~findings name old_e new_e =
  let add ?(severity = Hard) field detail =
    findings := { experiment = name; field; detail; severity } :: !findings
  in
  let fields = function Json.Obj f -> f | _ -> [] in
  let old_fields = fields old_e and new_fields = fields new_e in
  List.iter
    (fun (field, _) ->
      if not (List.mem_assoc field new_fields) then add field "field disappeared")
    old_fields;
  List.iter
    (fun (field, v) ->
      match List.assoc_opt field old_fields with
      | None -> add field "field appeared"
      | Some _ when not values -> ()
      | Some v' -> (
          match (field, v', v) with
          | "name", _, _ | "metrics", _, _ -> ()
          | _, Json.Int a, Json.Int b ->
              if a <> b then add field (Printf.sprintf "%d -> %d" a b)
          | _, (Json.Int _ | Json.Float _), (Json.Int _ | Json.Float _)
            when is_seconds_field field ->
              let a = Option.get (Json.to_number v')
              and b = Option.get (Json.to_number v) in
              (* wall clock: flag only a real slowdown — past 1.5x
                 and above an absolute noise floor *)
              if b > a *. 1.5 && b -. a > 0.005 then
                add
                  ~severity:(if wall_warn_only then Warn else Hard)
                  field
                  (Printf.sprintf "%.4fs -> %.4fs (%.2fx)" a b (b /. a))
          | _ -> (* derived floats, strings: not diffed *) ()))
    new_fields;
  match (Json.member "metrics" old_e, Json.member "metrics" new_e) with
  | Some old_m, Some new_m when values -> compare_metrics ~add old_m new_m
  | _ -> ()

(* ------------------------------------------------------------------ *)

let experiments_of doc =
  match Json.member "experiments" doc with
  | Some (Json.List items) -> Ok items
  | _ -> Error "no experiments array"

let run ~cores ~wall_warn_only ~old_doc ~new_doc =
  let ( let* ) = Result.bind in
  let* old_items = experiments_of old_doc in
  let* new_items = experiments_of new_doc in
  let old_exps = experiments old_items and new_exps = experiments new_items in
  let findings = ref [] in
  let schema doc =
    match Json.member "schema" doc with Some (Json.String s) -> s | _ -> "?"
  in
  if schema old_doc <> schema new_doc then
    findings :=
      [
        hard "(document)" "schema"
          (Printf.sprintf "%s -> %s" (schema old_doc) (schema new_doc));
      ];
  let compared = ref 0 in
  List.iter
    (fun (name, new_e) ->
      match List.assoc_opt name old_exps with
      | None ->
          findings := hard name "(experiment)" "experiment appeared" :: !findings
      | Some old_e ->
          let values = not (shape_only ~cores name) in
          if values then incr compared;
          compare_experiment ~values ~wall_warn_only ~findings name old_e new_e)
    new_exps;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name new_exps) then
        findings := hard name "(experiment)" "experiment disappeared" :: !findings)
    old_exps;
  Ok
    {
      findings =
        List.rev !findings @ facts new_items @ gates ~cores ~old_exps ~new_exps;
      compared = !compared;
      shape_only =
        List.sort_uniq compare
          (List.filter (shape_only ~cores) (List.map fst (new_exps @ old_exps)));
    }

let pp_finding ppf f =
  Fmt.pf ppf "%s %s: %s: %s"
    (match f.severity with Hard -> "FAIL" | Warn -> "warn")
    f.experiment f.field f.detail

let pp_report ppf r =
  List.iter (fun f -> Fmt.pf ppf "%a@." pp_finding f) r.findings;
  if r.shape_only <> [] then
    Fmt.pf ppf "field set only (nondeterministic): %s@."
      (String.concat ", " r.shape_only);
  let hard = hard_count r and warn = warn_count r in
  if hard = 0 && warn = 0 then
    Fmt.pf ppf "bench diff clean: %d experiments compared@." r.compared
  else
    Fmt.pf ppf "bench diff: %d experiments compared, %d hard, %d warn@."
      r.compared hard warn;
  match
    List.sort_uniq compare
      (List.filter_map
         (fun f -> if f.severity = Hard then Some f.experiment else None)
         r.findings)
  with
  | [] -> ()
  | names -> Fmt.pf ppf "regressed: %s@." (String.concat ", " names)
