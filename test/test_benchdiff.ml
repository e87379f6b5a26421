(* bench/benchdiff: the parallel arms are diffed and speed-gated only
   on hosts with at least 4 cores. The core count is an argument, so
   both sides are checked on any host. *)

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
      ] );
  ]
