let parse_reject pp e =
  Api.Response.Error
    { code = Api.Response.Parse_error; message = Fmt.str "%a" pp e }

let solve (p : Api.Request.solve_params) =
  match Dprle.Sysparse.parse p.system with
  | Error e -> parse_reject Dprle.Sysparse.pp_error e
  | Ok system -> (
      let config =
        Dprle.Solver.Config.make ~max_solutions:p.max_solutions
          ~combination_limit:p.combination_limit ()
      in
      match Dprle.Solver.run config system with
      | Error err ->
          Api.Response.Error
            {
              code = Api.Response.Budget_exceeded;
              message = Dprle.Solver.Error.to_string err;
            }
      | Ok (Dprle.Solver.Unsat { reason; core }) ->
          Api.Response.Unsat
            {
              reason = Dprle.Solver.unsat_message reason;
              core = List.map (Fmt.str "%a" Dprle.System.pp_constr) core;
            }
      | Ok (Dprle.Solver.Sat solutions) ->
          let witnesses =
            if p.witnesses then
              List.filter_map Dprle.Assignment.witness solutions
            else []
          in
          Api.Response.Sat { solutions = List.length solutions; witnesses })

(* check = solve capped at one solution, witness extraction skipped —
   the wire twin of [dprle check]. *)
let check system_text =
  solve
    {
      (Api.Request.solve_defaults ~system:system_text) with
      Api.Request.max_solutions = 1;
    }

let lint system_text =
  match Dprle.Sysparse.parse system_text with
  | Error e -> parse_reject Dprle.Sysparse.pp_error e
  | Ok system ->
      let findings =
        Dprle.Static.lint system
        |> List.map (fun (f : Dprle.Static.finding) ->
               {
                 Api.Response.severity =
                   Fmt.str "%a" Dprle.Static.pp_severity f.severity;
                 check = f.check;
                 message = f.message;
               })
      in
      Api.Response.Lint_report { findings }

let prepass_paths = Analysis.Prepass.default_path_budget

(* The webcheck pipeline rendered as structured sinks. No scan budget
   is passed, so a trip of the request budget {!handle} installs
   unwinds out of the fixpoint too and becomes one [Budget_exceeded]
   error response. *)
let webcheck (p : Api.Request.webcheck_params) =
  match Webapp.Lang_parser.parse_located p.program with
  | Error e -> parse_reject Webapp.Lang_parser.pp_error e
  | Ok (program, reads) -> (
      match Webapp.Attack.lookup p.attack with
      | None ->
          Api.Response.Error
            {
              code = Api.Response.Parse_error;
              message =
                Fmt.str "unknown attack language %S (known: %s)" p.attack
                  (String.concat ", " Webapp.Attack.names);
            }
      | Some attack ->
          let module P = Analysis.Pipeline in
          match
            P.plan ~static_prune:p.static_prune ~max_paths:p.max_paths ~attack
              program
          with
          | exception (Webapp.Symexec.Unassigned_variable read as e) ->
              (* a page the executor cannot evaluate is rejected at
                 the read, as webcheck does *)
              parse_reject Webapp.Lang_parser.pp_error
                (Webapp.Lang_parser.read_error reads read
                   ~message:(Printexc.to_string e))
          | plan ->
              let sink ?(path_id = -1) ?(sink_index = -1) ?(exploit = []) sink_id
                  status =
                {
                  Api.Response.path_id;
                  sink_index;
                  sink_id;
                  status = P.status_name status;
                  exploit;
                }
              in
              let pruned =
                List.map (fun id -> sink id P.Proved_safe_statically) plan.safe_sink_ids
              in
              let solved =
                List.of_seq
                  (Seq.map
                     (fun ((q : Webapp.Symexec.query), verdict) ->
                       let status = P.classify verdict in
                       let exploit =
                         match (status, verdict.Webapp.Symexec.assignment) with
                         | P.Vulnerable, Some a -> Webapp.Symexec.exploit_inputs q a
                         | _ -> []
                       in
                       ( status,
                         sink ~path_id:q.path_id ~sink_index:q.sink_index ~exploit
                           q.sink_id status ))
                     (P.solve plan))
              in
              Api.Response.Webcheck_report
                {
                  sinks = pruned @ List.map snd solved;
                  vulnerable =
                    List.length (List.filter (fun (s, _) -> s = P.Vulnerable) solved);
                  paths_truncated = plan.paths_truncated;
                })

let stats ~requests () =
  Api.Response.Stats_report
    { requests; counters = Metrics_text.stats_counters () }

let handle ?(requests = 0) (req : Api.Request.t) : Api.Response.t =
  let intern0, opcache0 = Automata.Store.hit_totals () in
  let t0 = Telemetry.Clock.now_ns () in
  (* The request budget is ambient for the whole handler, not just the
     solver call — a hostile program can blow up in path enumeration
     or the fixpoint too. Solver configs keep their default unlimited
     budget; installing unlimited is a no-op, so the ambient budget
     stays in force through nested solves. *)
  let budget =
    Automata.Budget.make ?wall_ms:req.budget_ms ?max_states:req.budget_states
      ()
  in
  let payload =
    match
      Automata.Budget.run budget (fun () ->
          match req.kind with
          | Api.Request.Solve p -> solve p
          | Api.Request.Check s -> check s
          | Api.Request.Lint s -> lint s
          | Api.Request.Webcheck p -> webcheck p
          | Api.Request.Stats -> stats ~requests ()
          | Api.Request.Shutdown -> Api.Response.Shutdown_ack { drained = 0 })
    with
    | Ok payload -> payload
    | Error stop ->
        Api.Response.Error
          {
            code = Api.Response.Budget_exceeded;
            message = Automata.Budget.stop_to_string stop;
          }
    | exception e ->
        Api.Response.Error
          { code = Api.Response.Internal; message = Printexc.to_string e }
  in
  let elapsed_us =
    Int64.to_int
      (Int64.div (Int64.sub (Telemetry.Clock.now_ns ()) t0) 1000L)
  in
  (* counters only grow, so the request's hits (worker counts absorbed
     by the engine included) are the difference of two readings: the
     snapshot diff's per-series deltas sum to the same number *)
  let intern1, opcache1 = Automata.Store.hit_totals () in
  {
    Api.Response.id = req.id;
    payload;
    obs =
      {
        Api.Response.elapsed_us;
        intern_hits = intern1 - intern0;
        opcache_hits = opcache1 - opcache0;
      };
  }
