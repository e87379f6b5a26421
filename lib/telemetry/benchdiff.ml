(* Comparator over two bench snapshot files (BENCH_dprle.json). The
   gating rule mirrors what is actually deterministic in a bench run:

   - shape (schema string, experiment set, per-experiment fields) and
     integer fields (solver/op counters, memo hits) must match exactly
     — the same binary on the same corpus produces the same counts, so
     any drift is a real behavior change: HARD.
   - [seconds*] floats are wall clock: noisy by nature, flagged only
     past a ratio threshold plus an absolute noise floor, and
     downgradeable to warnings (CI runs wall-warn-only).
   - metric series compare counters exactly, histograms by
     count/sum/buckets, timers by call count only — timer nanoseconds
     are wall clock and never gated.
   - other floats (timestamps, derived speedups) are ignored.

   Experiments whose counters are inherently nondeterministic are
   skipped: bechamel's are time-quota-driven, and the parallel
   engine's absorbed worker counters depend on which domain won each
   job (per-domain memo stores make cache hits scheduling-dependent). *)

type severity = Hard | Warn

type finding = {
  experiment : string;
  field : string;
  detail : string;
  severity : severity;
}

type report = {
  findings : finding list;
  compared : int; (* experiments actually diffed *)
  skipped : string list;
}

let default_skip = [ "bechamel/microbench"; "parallel/*"; "serve/*" ]
let hard_count r = List.length (List.filter (fun f -> f.severity = Hard) r.findings)
let warn_count r = List.length (List.filter (fun f -> f.severity = Warn) r.findings)

(* Skip/include entries are glob patterns: [*] matches any substring
   (including [/]), every other character is literal. Matching is the
   classic greedy scan — anchor the first and last literal chunks,
   find the middle chunks left to right. *)
let glob_matches pat name =
  match String.split_on_char '*' pat with
  | [ lit ] -> lit = name
  | chunks ->
      let n = String.length name in
      let find_from pos chunk =
        let cl = String.length chunk in
        let rec go i =
          if i + cl > n then None
          else if String.sub name i cl = chunk then Some (i + cl)
          else go (i + 1)
        in
        go pos
      in
      let rec scan pos ~last = function
        | [] -> pos = n
        | [ chunk ] when last ->
            let cl = String.length chunk in
            cl <= n - pos && String.sub name (n - cl) cl = chunk
        | chunk :: rest -> (
            match find_from pos chunk with
            | None -> false
            | Some pos' -> scan pos' ~last rest)
      in
      (match chunks with
      | first :: rest ->
          let fl = String.length first in
          fl <= n
          && String.sub name 0 fl = first
          && scan fl ~last:true rest
      | [] -> false)

let matches_any pats name = List.exists (fun p -> glob_matches p name) pats

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let is_seconds_field = starts_with ~prefix:"seconds"

(* ------------------------------------------------------------------ *)

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
  match Json.member key item with Some (Json.Int i) -> Some i | _ -> None

let compare_int_series ~experiment ~kind ~findings old_items new_items =
  let old_idx = index_series old_items and new_idx = index_series new_items in
  List.iter
    (fun (key, item) ->
      match List.assoc_opt key old_idx with
      | None ->
          findings :=
            {
              experiment;
              field = kind ^ " " ^ key;
              detail = "series appeared";
              severity = Hard;
            }
            :: !findings
      | Some old_item ->
          let v = int_field "value" item and v' = int_field "value" old_item in
          if v <> v' then
            let show = function Some i -> string_of_int i | None -> "?" in
            let detail = Printf.sprintf "%s -> %s" (show v') (show v) in
            findings :=
              {
                experiment;
                field = kind ^ " " ^ key;
                detail;
                severity = Hard;
              }
              :: !findings)
    new_idx;
  List.iter
    (fun (key, _) ->
      if not (List.mem_assoc key new_idx) then
        findings :=
          {
            experiment;
            field = kind ^ " " ^ key;
            detail = "series disappeared";
            severity = Hard;
          }
          :: !findings)
    old_idx

let compare_count_series ~experiment ~kind ~findings old_items new_items =
  (* histograms and timers: gate on the deterministic [count] field;
     buckets ride along for histograms via their JSON rendering *)
  let old_idx = index_series old_items and new_idx = index_series new_items in
  List.iter
    (fun (key, item) ->
      match List.assoc_opt key old_idx with
      | None ->
          findings :=
            {
              experiment;
              field = kind ^ " " ^ key;
              detail = "series appeared";
              severity = Hard;
            }
            :: !findings
      | Some old_item ->
          let c = int_field "count" item and c' = int_field "count" old_item in
          if c <> c' then
            findings :=
              {
                experiment;
                field = kind ^ " " ^ key ^ " count";
                detail =
                  Printf.sprintf "%s -> %s"
                    (match c' with Some i -> string_of_int i | None -> "?")
                    (match c with Some i -> string_of_int i | None -> "?");
                severity = Hard;
              }
              :: !findings;
          if kind = "histogram" then begin
            let buckets j =
              match Json.member "buckets" j with
              | Some b -> Json.to_string b
              | None -> ""
            in
            if buckets item <> buckets old_item then
              findings :=
                {
                  experiment;
                  field = kind ^ " " ^ key ^ " buckets";
                  detail = "bucket occupancy drifted";
                  severity = Hard;
                }
                :: !findings
          end)
    new_idx;
  List.iter
    (fun (key, _) ->
      if not (List.mem_assoc key new_idx) then
        findings :=
          {
            experiment;
            field = kind ^ " " ^ key;
            detail = "series disappeared";
            severity = Hard;
          }
          :: !findings)
    old_idx

let compare_metrics ~experiment ~findings old_m new_m =
  let items kind doc =
    match Json.member kind doc with
    | Some (Json.List l) -> l
    | _ -> []
  in
  compare_int_series ~experiment ~kind:"counter" ~findings (items "counters" old_m)
    (items "counters" new_m);
  compare_count_series ~experiment ~kind:"histogram" ~findings
    (items "histograms" old_m) (items "histograms" new_m);
  compare_count_series ~experiment ~kind:"timer" ~findings (items "timers" old_m)
    (items "timers" new_m)

let compare_experiment ~threshold ~wall_warn_only ~findings name old_e new_e =
  let fields = function Json.Obj f -> f | _ -> [] in
  let old_fields = fields old_e and new_fields = fields new_e in
  let shape_drift field detail =
    findings := { experiment = name; field; detail; severity = Hard } :: !findings
  in
  List.iter
    (fun (field, _) ->
      if not (List.mem_assoc field new_fields) then
        shape_drift field "field disappeared")
    old_fields;
  List.iter
    (fun (field, v) ->
      match List.assoc_opt field old_fields with
      | None -> shape_drift field "field appeared"
      | Some v' -> (
          match (field, v', v) with
          | "name", _, _ | "metrics", _, _ -> ()
          | _, Json.Int a, Json.Int b ->
              if a <> b then
                findings :=
                  {
                    experiment = name;
                    field;
                    detail = Printf.sprintf "%d -> %d" a b;
                    severity = Hard;
                  }
                  :: !findings
          | _, (Json.Int _ | Json.Float _), (Json.Int _ | Json.Float _)
            when is_seconds_field field ->
              let a = Option.get (Json.to_number v')
              and b = Option.get (Json.to_number v) in
              (* wall clock: flag only a real slowdown — past the
                 ratio threshold and above an absolute noise floor *)
              if b > a *. threshold && b -. a > 0.005 then
                findings :=
                  {
                    experiment = name;
                    field;
                    detail = Printf.sprintf "%.4fs -> %.4fs (%.2fx)" a b (b /. a);
                    severity = (if wall_warn_only then Warn else Hard);
                  }
                  :: !findings
          | _ -> (* derived floats, strings: not gated *) ()))
    new_fields;
  match (List.assoc_opt "metrics" old_fields, List.assoc_opt "metrics" new_fields)
  with
  | Some old_m, Some new_m -> compare_metrics ~experiment:name ~findings old_m new_m
  | None, None -> ()
  | _ -> shape_drift "metrics" "metrics block appeared/disappeared"

(* ------------------------------------------------------------------ *)

let experiments doc =
  match Json.member "experiments" doc with
  | Some (Json.List items) ->
      Ok
        (List.filter_map
           (fun e ->
             match Json.member "name" e with
             | Some (Json.String n) -> Some (n, e)
             | _ -> None)
           items)
  | _ -> Error "no experiments array"

let run ?(threshold = 1.5) ?(wall_warn_only = false) ?(skip = [])
    ?(include_ = []) ~old_doc ~new_doc () =
  let skip_pats = skip @ default_skip in
  (* an --include glob opts an experiment back in even when a skip
     pattern (default or explicit) covers it *)
  let skip name = matches_any skip_pats name && not (matches_any include_ name) in
  let ( let* ) = Result.bind in
  let findings = ref [] in
  let schema doc =
    match Json.member "schema" doc with Some (Json.String s) -> s | _ -> "?"
  in
  if schema old_doc <> schema new_doc then
    findings :=
      {
        experiment = "(document)";
        field = "schema";
        detail = Printf.sprintf "%s -> %s" (schema old_doc) (schema new_doc);
        severity = Hard;
      }
      :: !findings;
  let* old_exps = experiments old_doc in
  let* new_exps = experiments new_doc in
  let skipped e = skip (fst e) in
  let compared = ref 0 in
  List.iter
    (fun (name, new_e) ->
      if not (skip name) then
        match List.assoc_opt name old_exps with
        | None ->
            findings :=
              {
                experiment = name;
                field = "(experiment)";
                detail = "experiment appeared";
                severity = Hard;
              }
              :: !findings
        | Some old_e ->
            incr compared;
            compare_experiment ~threshold ~wall_warn_only ~findings name old_e
              new_e)
    new_exps;
  List.iter
    (fun (name, _) ->
      if (not (skip name)) && not (List.mem_assoc name new_exps) then
        findings :=
          {
            experiment = name;
            field = "(experiment)";
            detail = "experiment disappeared";
            severity = Hard;
          }
          :: !findings)
    old_exps;
  Ok
    {
      findings = List.rev !findings;
      compared = !compared;
      skipped =
        List.sort_uniq compare
          (List.map fst (List.filter skipped (new_exps @ old_exps)));
    }

let regressed_experiments r =
  List.sort_uniq compare
    (List.filter_map
       (fun f -> if f.severity = Hard then Some f.experiment else None)
       r.findings)

let pp_finding ppf f =
  Fmt.pf ppf "%s %s: %s: %s"
    (match f.severity with Hard -> "FAIL" | Warn -> "warn")
    f.experiment f.field f.detail

let pp_report ppf r =
  List.iter (fun f -> Fmt.pf ppf "%a@." pp_finding f) r.findings;
  if r.skipped <> [] then
    Fmt.pf ppf "skipped (nondeterministic): %s@." (String.concat ", " r.skipped);
  let hard = hard_count r and warn = warn_count r in
  if hard = 0 && warn = 0 then
    Fmt.pf ppf "bench diff clean: %d experiments compared@." r.compared
  else
    Fmt.pf ppf "bench diff: %d experiments compared, %d hard, %d warn@."
      r.compared hard warn;
  match regressed_experiments r with
  | [] -> ()
  | names -> Fmt.pf ppf "regressed: %s@." (String.concat ", " names)
