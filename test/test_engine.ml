(* The parallel batch engine: deterministic merge, per-job budgets and
   failure isolation, and the redesigned result-typed solver API it
   feeds (Config round-trips, structured unsat reasons, shims). *)

module Nfa = Automata.Nfa
module Ops = Automata.Ops
module Budget = Automata.Budget
module Solver = Dprle.Solver

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)

let fig1_source =
  {| let filter = /[\d]+$/;
     let prefix = "nid_";
     let unsafe = /'/;
     v1 <= filter;
     prefix . v1 <= unsafe; |}

let fixed_source =
  {| let filter = /^[\d]+$/;
     let prefix = "nid_";
     let unsafe = /'/;
     v1 <= filter;
     prefix . v1 <= unsafe; |}

let bad_source = {| v1 <= nope; |}

(* Parse + solve + render, the way `dprle batch` jobs do: everything a
   job prints is derived from values, so rendering is reproducible no
   matter which worker ran it. *)
let solve_and_render source =
  match Dprle.Sysparse.parse source with
  | Error e -> Fmt.str "parse error: %a" Dprle.Sysparse.pp_error e
  | Ok system -> (
      match Solver.run Solver.Config.default system with
      | Ok (Solver.Sat sols) -> Fmt.str "sat (%d)" (List.length sols)
      | Ok (Solver.Unsat { reason; _ }) ->
          Fmt.str "unsat — %s" (Solver.unsat_message reason)
      | Error e -> Fmt.str "error: %s" (Solver.Error.to_string e))

(* Θ(q²) product states when intersecting a{0,q} with (aa){0,q}. *)
let heavy_product q =
  let m1 = Ops.repeat (Nfa.of_word "a") ~min_count:0 ~max_count:(Some q) in
  let m2 = Ops.repeat (Nfa.of_word "aa") ~min_count:0 ~max_count:(Some q) in
  Nfa.num_states (Ops.intersect m1 m2).machine

let render r =
  Fmt.str "%d: %a" r.Engine.index (Engine.pp_outcome Fmt.string) r.Engine.outcome

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)

let engine_tests =
  [
    test "determinism: jobs=1 and jobs=4 render identically" (fun () ->
        let work =
          List.concat
            (List.init 3 (fun _ -> [ fig1_source; fixed_source; bad_source ]))
        in
        let run jobs =
          let results, stats =
            Engine.map ~jobs ~f:(fun _ src -> solve_and_render src) work
          in
          check_int "pool size" (min jobs (List.length work)) stats.Engine.workers;
          List.map render results
        in
        Alcotest.(check (list string)) "reports" (run 1) (run 4));
    test "results come back in submission order" (fun () ->
        let results, stats =
          Engine.map ~jobs:4 ~f:(fun _ n -> n * n) [ 3; 1; 4; 1; 5; 9; 2; 6 ]
        in
        check_int "jobs" 8 stats.Engine.jobs;
        List.iteri
          (fun i (r : _ Engine.job_result) -> check_int "index" i r.index)
          results;
        Alcotest.(check (list int))
          "squares in submission order"
          [ 9; 1; 16; 1; 25; 81; 4; 36 ]
          (List.map
             (fun r ->
               match r.Engine.outcome with
               | Engine.Done v -> v
               | _ -> Alcotest.fail "expected Done")
             results));
    test "a raising job fails alone" (fun () ->
        let results, _ =
          Engine.map ~jobs:2
            ~f:(fun _ n -> if n = 1 then failwith "boom" else n)
            [ 0; 1; 2 ]
        in
        let contains_boom msg =
          let n = String.length msg in
          let rec go i = i + 4 <= n && (String.sub msg i 4 = "boom" || go (i + 1)) in
          go 0
        in
        match List.map (fun r -> r.Engine.outcome) results with
        | [ Engine.Done 0; Engine.Failed f; Engine.Done 2 ] ->
            check_bool "message kept" true (contains_boom f.Engine.message)
        | _ -> Alcotest.fail "expected Done/Failed/Done");
    test "one over-budget job degrades without sinking the batch" (fun () ->
        let results, _ =
          Engine.map ~jobs:2
            ~budget:(Budget.make ~max_states:200 ())
            ~f:(fun _ q -> heavy_product q)
            [ 2; 60; 3 ]
        in
        match List.map (fun r -> r.Engine.outcome) results with
        | [ Engine.Done _; Engine.Budget_exceeded Budget.Out_of_states; Engine.Done _ ] -> ()
        | other ->
            Alcotest.failf "unexpected outcomes: %a"
              Fmt.(list ~sep:comma (Engine.pp_outcome int))
              other);
    test "wall-clock budget times a spinning job out" (fun () ->
        let spin _ () =
          (* [Budget.tick] is the solver's BFS-loop hook; a budget of
             10 ms must stop the loop long before 10^9 iterations *)
          let i = ref 0 in
          while !i < 1_000_000_000 do
            incr i;
            Budget.tick ()
          done
        in
        let results, _ =
          Engine.map ~jobs:1 ~budget:(Budget.make ~wall_ms:10 ()) ~f:spin [ () ]
        in
        match (List.hd results).Engine.outcome with
        | Engine.Budget_exceeded Budget.Timeout -> ()
        | _ -> Alcotest.fail "expected Timeout");
    test "jobs=1 runs inline: no worker spans" (fun () ->
        let (), root =
          Telemetry.Span.collect ~name:"t" (fun () ->
              let _, stats = Engine.map ~jobs:1 ~f:(fun _ n -> n) [ 1; 2 ] in
              check_bool "no lanes" true (stats.Engine.worker_spans = []))
        in
        ignore root);
    test "parallel workers hand back span lanes while tracing" (fun () ->
        let (), _root =
          Telemetry.Span.collect ~name:"t" (fun () ->
              let _, stats =
                Engine.map ~jobs:2 ~name:"lane" ~f:(fun _ n -> n) [ 1; 2; 3 ]
              in
              check_int "one lane per worker" 2
                (List.length stats.Engine.worker_spans);
              List.iteri
                (fun i (label, span) ->
                  check_string "label" (Fmt.str "worker-%d" i) label;
                  check_string "span name"
                    (Fmt.str "lane-worker-%d" i)
                    (Telemetry.Span.name span))
                stats.Engine.worker_spans)
        in
        ());
    test "worker metrics are absorbed into the caller's registry" (fun () ->
        let c = Telemetry.Metrics.Counter.make "test.engine.jobs_ran" in
        let before = Telemetry.Metrics.Counter.value c in
        let _, _ =
          Engine.map ~jobs:2
            ~f:(fun _ _ -> Telemetry.Metrics.Counter.incr c 1)
            [ (); (); (); () ]
        in
        check_int "all four increments visible after the joins" (before + 4)
          (Telemetry.Metrics.Counter.value c));
    test "DLS isolation: timer and ledger deltas absorbed exactly once"
      (fun () ->
        (* Each job interns a word unique to it twice — one miss, one
           hit — inside one timed region, so the expected deltas are
           exact regardless of which worker ran which job. The diff
           must be identical for an inline run (jobs=1, main-domain
           DLS) and a parallel run (jobs=4, per-worker DLS registries
           merged by the engine): each worker's timers and ledger
           counters absorbed exactly once, none lost, none doubled. *)
        let t_iso = Telemetry.Metrics.Timer.make "test.engine.iso" in
        let module Snapshot = Telemetry.Metrics.Snapshot in
        let timer_count diff ?labels name =
          match Snapshot.timer_stat diff ?labels name with
          | Some (s : Snapshot.timer_stat) -> s.count
          | None -> 0
        in
        let arm jobs =
          Automata.Store.clear ();
          let before = Snapshot.of_default () in
          let work = List.init 8 (fun i -> Fmt.str "engiso-%d-%d" jobs i) in
          let _, _ =
            Engine.map ~jobs
              ~f:(fun _ word ->
                Telemetry.Metrics.Timer.time t_iso (fun () ->
                    ignore (Automata.Store.intern (Nfa.of_word word));
                    ignore (Automata.Store.intern (Nfa.of_word word))))
              work
          in
          let diff = Snapshot.diff ~after:(Snapshot.of_default ()) ~before in
          ( timer_count diff "test.engine.iso",
            Snapshot.counter_value diff "store.intern.miss",
            Snapshot.counter_value diff "store.intern.hit",
            timer_count diff ~labels:[ ("op", "intern") ] "store.ledger.key" )
        in
        let serial = arm 1 in
        let parallel = arm 4 in
        check_bool "identical deltas for jobs=1 and jobs=4" true
          (serial = parallel);
        let timers, misses, hits, keyed = serial in
        check_int "one timed region per job" 8 timers;
        check_int "one intern miss per job" 8 misses;
        check_int "one intern hit per job" 8 hits;
        check_int "two key computations per job" 16 keyed);
  ]

(* ------------------------------------------------------------------ *)
(* Persistent pool                                                    *)

let pool_tests =
  [
    test "a reused pool keeps worker stores warm across batches" (fun () ->
        (* one worker, so scheduling can't blur the ledger: batch 1
           pays the word's single intern miss; batch 2 on the same
           pool must be all hits — the worker domain (and its DLS
           store) survived between batches *)
        let module Snapshot = Telemetry.Metrics.Snapshot in
        Automata.Store.clear ();
        Engine.Pool.with_pool ~size:1 @@ fun pool ->
        let work = List.init 8 (fun i -> i) in
        let job _ _ = ignore (Automata.Store.intern (Nfa.of_word "pool-warm")) in
        let _ = Engine.Pool.map pool ~f:job work in
        let before = Snapshot.of_default () in
        let _ = Engine.Pool.map pool ~f:job work in
        let diff = Snapshot.diff ~after:(Snapshot.of_default ()) ~before in
        check_int "no misses in the second batch" 0
          (Snapshot.counter_value diff "store.intern.miss");
        check_int "every job hit the warm store" 8
          (Snapshot.counter_value diff "store.intern.hit"));
    test "pool shutdown is idempotent and map then refuses" (fun () ->
        let pool = Engine.Pool.create ~size:2 () in
        check_bool "alive" true (Engine.Pool.alive pool);
        let results, _ = Engine.Pool.map pool ~f:(fun _ n -> n + 1) [ 1; 2; 3 ] in
        check_int "batch ran" 3 (List.length results);
        Engine.Pool.shutdown pool;
        check_bool "dead" false (Engine.Pool.alive pool);
        Engine.Pool.shutdown pool;
        (* second shutdown is a no-op *)
        check_bool "still dead" false (Engine.Pool.alive pool);
        match Engine.Pool.map pool ~f:(fun _ n -> n) [ 1 ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "map on a shut-down pool must raise");
    test "determinism on the pool path: size=1 and size=4 render identically"
      (fun () ->
        let work =
          List.concat
            (List.init 3 (fun _ -> [ fig1_source; fixed_source; bad_source ]))
        in
        let run size =
          Engine.Pool.with_pool ~size @@ fun pool ->
          (* two batches per pool: reuse must not leak state into the
             rendered reports either *)
          let _ =
            Engine.Pool.map pool ~f:(fun _ src -> solve_and_render src) work
          in
          let results, stats =
            Engine.Pool.map pool ~f:(fun _ src -> solve_and_render src) work
          in
          check_int "pool size" (min size (List.length work))
            stats.Engine.workers;
          List.map render results
        in
        Alcotest.(check (list string)) "reports" (run 1) (run 4));
    test "pool map on an empty batch is a no-op" (fun () ->
        Engine.Pool.with_pool ~size:2 @@ fun pool ->
        let results, stats = Engine.Pool.map pool ~f:(fun _ n -> n) [] in
        check_int "no results" 0 (List.length results);
        check_int "no jobs" 0 stats.Engine.jobs);
  ]

(* ------------------------------------------------------------------ *)
(* Budgets at the solver boundary                                     *)

let budget_tests =
  [
    test "state budget stops an adversarial solve structurally" (fun () ->
        Automata.Store.clear ();
        let system = Dprle.Sysparse.parse_exn fig1_source in
        let config =
          Solver.Config.make ~budget:(Budget.make ~max_states:3 ()) ()
        in
        match Solver.run config system with
        | Error (Solver.Error.Budget_exceeded Budget.Out_of_states) -> ()
        | Error e ->
            Alcotest.failf "expected Out_of_states, got %s" (Solver.Error.to_string e)
        | Ok _ -> Alcotest.fail "3 states cannot decide fig1");
    test "an unlimited budget never trips" (fun () ->
        let system = Dprle.Sysparse.parse_exn fig1_source in
        match Solver.run Solver.Config.default system with
        | Ok (Solver.Sat _) -> ()
        | Ok (Solver.Unsat r) -> Alcotest.failf "unsat: %s" (Solver.unsat_message r.Solver.reason)
        | Error e -> Alcotest.failf "budget: %s" (Solver.Error.to_string e));
    test "report boundary returns the same structured error" (fun () ->
        Automata.Store.clear ();
        let system = Dprle.Sysparse.parse_exn fig1_source in
        let config =
          Solver.Config.make ~budget:(Budget.make ~max_states:3 ()) ()
        in
        match Dprle.Report.solve_with_report ~config system with
        | Error (Solver.Error.Budget_exceeded Budget.Out_of_states) -> ()
        | Error _ -> Alcotest.fail "wrong stop"
        | Ok _ -> Alcotest.fail "expected budget error");
    test "budgets nest: the inner one shadows" (fun () ->
        let hit =
          Budget.run (Budget.make ~max_states:1_000_000 ()) (fun () ->
              Budget.run (Budget.make ~max_states:10 ()) (fun () ->
                  heavy_product 40))
        in
        (match hit with
        | Ok (Error Budget.Out_of_states) -> ()
        | Error _ -> Alcotest.fail "outer budget must not catch the inner trip"
        | _ -> Alcotest.fail "inner budget should trip");
        (* after the inner scope, the outer (roomy) budget is back *)
        match Budget.run (Budget.make ~max_states:1_000_000 ()) (fun () ->
            heavy_product 5)
        with
        | Ok n -> check_bool "product built" true (n > 0)
        | Error _ -> Alcotest.fail "outer budget must not trip");
  ]

(* ------------------------------------------------------------------ *)
(* Config / outcome API                                               *)

let api_tests =
  [
    test "Config.make () round-trips to default" (fun () ->
        check_bool "default" true (Solver.Config.make () = Solver.Config.default));
    test "Config.make keeps every field" (fun () ->
        let b = Budget.make ~wall_ms:50 ~max_states:77 () in
        let c =
          Solver.Config.make ~max_solutions:9 ~combination_limit:33 ~budget:b ()
        in
        check_int "max_solutions" 9 c.Solver.Config.max_solutions;
        check_int "combination_limit" 33 c.Solver.Config.combination_limit;
        check_bool "budget" true (c.Solver.Config.budget = b));
    test "unsat_message renders the legacy strings" (fun () ->
        List.iter
          (fun (reason, expected) ->
            check_string "message" expected (Solver.unsat_message reason))
          [
            ( Solver.Const_expr_violation,
              "constant expression violates its subset constraint" );
            ( Solver.No_cut 3,
              "concatenation 3 admits no ε-cut: its language is empty" );
            ( Solver.All_combinations_empty,
              "every ε-cut combination of a CI-group forces an empty language" );
            ( Solver.Empty_variable "v",
              "variable v is constrained to the empty language" );
          ]);
    test "structured unsat reason is machine-matchable" (fun () ->
        let system = Dprle.Sysparse.parse_exn fixed_source in
        match Solver.run Solver.Config.default system with
        (* the analyzer refutes this system statically (empty bound on
           v1) and names a minimal core; with the analyzer off the
           solver proper reaches the same verdict through ε-cut
           enumeration, with no core *)
        | Ok (Solver.Unsat { Solver.reason = Solver.Empty_variable "v1"; core }) ->
            Alcotest.(check bool) "analyzer names a core" true (core <> [])
        | Ok (Solver.Unsat r) ->
            Alcotest.failf "wrong reason: %s" (Solver.unsat_message r.Solver.reason)
        | _ -> Alcotest.fail "expected unsat");
    test "analyzer-off unsat reason has no core" (fun () ->
        let system = Dprle.Sysparse.parse_exn fixed_source in
        let cfg = { Solver.Config.default with Solver.Config.analyze = false } in
        match Solver.run cfg system with
        | Ok (Solver.Unsat { Solver.reason = Solver.All_combinations_empty; core }) ->
            Alcotest.(check (list pass)) "no core" [] core
        | Ok (Solver.Unsat r) ->
            Alcotest.failf "wrong reason: %s" (Solver.unsat_message r.Solver.reason)
        | _ -> Alcotest.fail "expected unsat");
    test "run agrees with solve_with_report" (fun () ->
        let system = Dprle.Sysparse.parse_exn fig1_source in
        let cfg = Solver.Config.make ~max_solutions:4 () in
        let witnesses = function
          | Ok (Solver.Sat sols) -> List.map Dprle.Assignment.witness sols
          | _ -> []
        in
        check_bool "same verdict shape" true
          (witnesses (Result.map fst (Dprle.Report.solve_with_report ~config:cfg system))
          = witnesses (Solver.run cfg system));
        match Solver.run cfg system with
        | Ok (Solver.Sat _) -> ()
        | _ -> Alcotest.fail "fig1 must stay sat");
    test "symexec verdict carries budget status and slot languages" (fun () ->
        let program =
          Webapp.Lang_parser.parse_exn
            {|$newsid = input("posted_newsid");
              if (!preg_match(/[\d]+$/, $newsid)) { exit; }
              $newsid = "nid_" . $newsid;
              query("SELECT * FROM news WHERE newsid=" . $newsid);|}
        in
        match
          (Webapp.Symexec.analyze ~attack:Webapp.Attack.contains_quote program)
            .Webapp.Symexec.candidates
        with
        | [ q ] -> (
            let v = Webapp.Symexec.solve q in
            check_bool "within budget" true
              (v.Webapp.Symexec.budget = Webapp.Symexec.Within_budget);
            (match v.Webapp.Symexec.assignment with
            | Some _ -> ()
            | None -> Alcotest.fail "expected exploit");
            match v.Webapp.Symexec.slot_languages with
            | [ (var, h) ] ->
                check_bool "slot var" true (String.length var > 0);
                check_bool "slot language nonempty" false
                  (Automata.Store.is_empty h)
            | _ -> Alcotest.fail "expected one slot language")
        | _ -> Alcotest.fail "expected one candidate");
    test "symexec reports the budget stop instead of claiming safe" (fun () ->
        Automata.Store.clear ();
        let program =
          Webapp.Lang_parser.parse_exn
            {|$newsid = input("posted_newsid");
              if (!preg_match(/[\d]+$/, $newsid)) { exit; }
              $newsid = "nid_" . $newsid;
              query("SELECT * FROM news WHERE newsid=" . $newsid);|}
        in
        match
          (Webapp.Symexec.analyze ~attack:Webapp.Attack.contains_quote program)
            .Webapp.Symexec.candidates
        with
        | [ q ] -> (
            let config =
              Solver.Config.make ~budget:(Budget.make ~max_states:3 ()) ()
            in
            let v = Webapp.Symexec.solve ~config q in
            check_bool "no assignment claimed" true
              (v.Webapp.Symexec.assignment = None);
            match v.Webapp.Symexec.budget with
            | Webapp.Symexec.Budget_exceeded _ -> ()
            | Webapp.Symexec.Within_budget ->
                Alcotest.fail "expected budget-exceeded status")
        | _ -> Alcotest.fail "expected one candidate");
  ]

let suite =
  [
    ("engine:map", engine_tests);
    ("engine:pool", pool_tests);
    ("engine:budget", budget_tests);
    ("engine:api", api_tests);
  ]
