(* bench/benchdiff: the parallel arms are diffed and speed-gated only
   on hosts with at least 4 cores. The core count is an argument, so
   both sides are checked on any host. The facts hold on the
   checked-in baseline, and a record that loses what a fact reads
   breaks it. *)

open Helpers
module Json = Telemetry.Json

let doc ?(extra = []) ~speedup ~batches () =
  Json.Obj
    [
      ("schema", Json.String "dprle-bench/2");
      ( "experiments",
        Json.List
          [
            Json.Obj
              ([
                ("name", Json.String "parallel/jobs4");
                ("jobs", Json.Int 4);
                ("seconds", Json.Float 1.0);
                ("speedup_vs_jobs1", Json.Float speedup);
              ]
              @ extra);
            Json.Obj
              [
                ("name", Json.String "parallel/pool_reuse");
                ("batches", Json.Int batches);
                ("seconds_pool", Json.Float 1.0);
                ("speedup_pool_vs_spawn", Json.Float 1.2);
              ];
          ] );
    ]

(* "experiment field" of every finding about a parallel arm *)
let parallel_findings ~cores ~old_doc ~new_doc =
  match Benchdiff.run ~cores ~wall_warn_only:true ~old_doc ~new_doc with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      List.filter_map
        (fun (f : Benchdiff.finding) ->
          if String.starts_with ~prefix:"parallel/" f.experiment then
            Some (f.experiment ^ " " ^ f.field)
          else None)
        r.findings

let check_findings = Alcotest.(check (list string))

(* the experiments of the checked-in baseline *)
let baseline () =
  match
    Json.of_string (In_channel.with_open_text "../BENCH_dprle.json" In_channel.input_all)
  with
  | Ok doc -> (
      match Json.member "experiments" doc with
      | Some (Json.List items) -> items
      | _ -> Alcotest.fail "baseline has no experiments array")
  | Error msg -> Alcotest.fail msg

(* [experiment] with the histogram series [h] dropped from its metrics *)
let drop_histogram experiment h items =
  let edit key f = function
    | Json.Obj fields ->
        Json.Obj (List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) fields)
    | j -> j
  in
  let drop = function
    | Json.List series ->
        Json.List
          (List.filter (fun s -> Json.member "name" s <> Some (Json.String h)) series)
    | j -> j
  in
  List.map
    (fun e ->
      if Json.member "name" e = Some (Json.String experiment) then
        edit "metrics" (edit "histograms" drop) e
      else e)
    items

let fact_findings items =
  List.map
    (fun (f : Benchdiff.finding) -> f.experiment ^ " " ^ f.detail)
    (Benchdiff.facts items)

let suite =
  [
    ( "bench:diff",
      [
        test "a slow jobs4 arm fails the gate only on 4 cores" (fun () ->
            let old_doc = doc ~speedup:1.5 ~batches:4 () in
            let new_doc = doc ~speedup:0.5 ~batches:4 () in
            check_findings "2 cores" []
              (parallel_findings ~cores:2 ~old_doc ~new_doc);
            check_findings "4 cores" [ "parallel/jobs4 speedup_vs_jobs1" ]
              (parallel_findings ~cores:4 ~old_doc ~new_doc));
        test "parallel values are diffed only on 4 cores" (fun () ->
            let old_doc = doc ~speedup:1.5 ~batches:4 () in
            let new_doc = doc ~speedup:1.5 ~batches:5 () in
            check_findings "2 cores" []
              (parallel_findings ~cores:2 ~old_doc ~new_doc);
            check_findings "4 cores" [ "parallel/pool_reuse batches" ]
              (parallel_findings ~cores:4 ~old_doc ~new_doc));
        test "a parallel arm's field set is compared on any host" (fun () ->
            let old_doc = doc ~speedup:1.5 ~batches:4 () in
            let new_doc =
              doc ~extra:[ ("note", Json.Int 1) ] ~speedup:1.5 ~batches:4 ()
            in
            List.iter
              (fun cores ->
                check_findings (Printf.sprintf "%d cores" cores)
                  [ "parallel/jobs4 note" ]
                  (parallel_findings ~cores ~old_doc ~new_doc))
              [ 2; 4 ]);
        test "the baseline keeps every fact; fig12 must populate the histograms"
          (fun () ->
            let items = baseline () in
            check_findings "baseline" [] (fact_findings items);
            List.iter
              (fun h ->
                check_findings h
                  [ "fig12/solving histogram " ^ h ^ " populated" ]
                  (fact_findings (drop_histogram "fig12/solving" h items)))
              [ "automata.subset.visited"; "automata.bfs.frontier" ]);
      ] );
  ]
