(* webcheck — end-to-end vulnerability finder: parses a mini-PHP file,
   symbolically executes every path, solves the resulting constraint
   systems, and prints exploit inputs (verified against the concrete
   interpreter). This is the workflow of the paper's §4 evaluation. *)

let positioned path e = Fmt.str "%s: %a" path Webapp.Lang_parser.pp_error e

let read_program path =
  let source = In_channel.with_open_text path In_channel.input_all in
  Result.map_error (positioned path) (Webapp.Lang_parser.parse_located source)

let attack_conv =
  let parse s =
    match Webapp.Attack.lookup s with
    | Some lang -> Ok lang
    | None ->
        Error
          (`Msg
            (Fmt.str "unknown attack language %S (known: %s)" s
               (String.concat ", " Webapp.Attack.names)))
  in
  Cmdliner.Arg.conv (parse, fun ppf _ -> Fmt.string ppf "<attack>")

(* With --structural: recover the intended query by solving the same
   path without the attack constraint, run both input vectors through
   the interpreter, and compare the queries' parse structure. *)
let structural_verdict program q exploit_inputs =
  match Webapp.Symexec.benign_inputs q with
  | None -> None
  | Some benign_assignment ->
      let benign =
        Webapp.Symexec.with_defaults program
          (Webapp.Symexec.exploit_inputs q benign_assignment)
      in
      let intended = Webapp.Eval.queries program ~inputs:benign in
      let actual = Webapp.Eval.queries program ~inputs:exploit_inputs in
      (match
         ( List.nth_opt intended q.Webapp.Symexec.sink_index,
           List.nth_opt actual q.Webapp.Symexec.sink_index )
       with
      | Some i, Some a -> Some (i, Sql.Analysis.compare_queries ~intended:i ~actual:a)
      | _ -> None)

(* Scan one file, writing the report to [ppf] (and errors to [err] —
   directory mode points both at a per-file buffer so the output stays
   deterministic under parallel workers). Exit code: 0 vulnerable,
   1 safe, 2 parse error (or a path that reads an unassigned
   variable, reported at the read like a parse error), 4 no
   vulnerability found but at least one candidate's solve ran out of
   budget (verdict unknown).

   The candidates come from [Analysis.Pipeline]: with [static_prune]
   the sound dataflow analysis runs first, and sinks whose abstract
   query language misses the attack language entirely are reported
   proved safe statically and never solved — over all paths, loops
   included, so a truncated enumeration cannot weaken those verdicts.
   This function only renders the plan and the solves. *)
let check_one ~ppf ~err path attack all structural max_paths static_prune
    prepass_paths config =
  let module P = Analysis.Pipeline in
  match
    Result.bind (read_program path) (fun (program, reads) ->
        match
          P.plan ~budget:config.Dprle.Solver.Config.budget ~static_prune
            ~prepass_paths ~max_paths ~attack program
        with
        | plan -> Ok (program, plan)
        | exception (Webapp.Symexec.Unassigned_variable read as e) ->
            Error
              (positioned path
                 (Webapp.Lang_parser.read_error reads read
                    ~message:(Printexc.to_string e))))
  with
  | Error msg ->
      Fmt.pf err "error: %s@." msg;
      2
  | Ok (program, plan) ->
      (match plan.P.fixpoint with
      | P.Skipped reason ->
          (* debug-only: stdout must stay byte-identical with
             --no-static-prune whenever nothing was pruned *)
          Logs.debug (fun m -> m "%s: static analysis skipped (%s)" path reason)
      | P.Budget_stopped stop ->
          Fmt.pf ppf "static analysis: budget exceeded (%a); not pruning@."
            Automata.Budget.pp_stop stop
      | P.Disabled | P.Ran _ -> ());
      if P.all_sinks_pruned plan then
        Fmt.pf ppf
          "%s: %d basic blocks, all %d sink(s) proved safe statically \
           (symbolic execution skipped)@."
          path
          (Webapp.Ast.basic_blocks program)
          plan.P.sinks
      else
        Fmt.pf ppf "%s: %d basic blocks, %d sink-reaching path candidates@."
          path
          (Webapp.Ast.basic_blocks program)
          (List.length plan.P.candidates);
      (match plan.P.fixpoint with
      | P.Ran r ->
          Logs.debug (fun m ->
              m "static fixpoint: %d blocks, %d iterations, %d widenings"
                r.Analysis.Fixpoint.blocks r.Analysis.Fixpoint.iterations
                r.Analysis.Fixpoint.widenings);
          List.iter
            (fun id -> Fmt.pf ppf "sink %d: proved safe statically@." id)
            plan.P.safe_sink_ids
      | P.Disabled | P.Skipped _ | P.Budget_stopped _ -> ());
      let vulnerable = ref 0 in
      let over_budget = ref 0 in
      (try
         Seq.iter
           (fun ((q : Webapp.Symexec.query), verdict) ->
             Telemetry.Events.emit_global ~kind:"sink"
               [
                 ("file", Telemetry.Json.String path);
                 ("path", Telemetry.Json.Int q.path_id);
                 ("sink", Telemetry.Json.Int q.sink_index);
                 ( "outcome",
                   Telemetry.Json.String (P.status_name (P.classify verdict)) );
               ];
             (match verdict.Webapp.Symexec.budget with
             | Webapp.Symexec.Within_budget -> ()
             | Webapp.Symexec.Budget_exceeded stop ->
                 incr over_budget;
                 Fmt.pf ppf
                   "skipped (path %d, sink %d): budget exceeded: %a@."
                   q.path_id q.sink_index Automata.Budget.pp_stop stop);
             match verdict.Webapp.Symexec.assignment with
             | None -> ()
             | Some assignment ->
                 incr vulnerable;
                 let inputs =
                   Webapp.Symexec.with_defaults program
                     (Webapp.Symexec.exploit_inputs q assignment)
                 in
                 let confirmed =
                   Webapp.Eval.vulnerable_run ~attack program ~inputs
                 in
                 Fmt.pf ppf
                   "@[<v2>VULNERABLE (path %d, sink %d, |C|=%d, %a) — %s:@ \
                    %a@]@."
                   q.path_id q.sink_index q.constraint_count
                   Webapp.Symexec.pp_provenance
                   verdict.Webapp.Symexec.provenance
                   (if confirmed then "exploit confirmed by concrete run"
                    else "WARNING: exploit did not reproduce")
                   Fmt.(
                     list ~sep:cut (fun ppf (k, v) -> Fmt.pf ppf "%s = %S" k v))
                   inputs;
                 if structural then begin
                   match structural_verdict program q inputs with
                   | Some (intended, Some reason) ->
                       Fmt.pf ppf "  intended query: %s@." intended;
                       Fmt.pf ppf "  structural verdict: %a@."
                         Sql.Analysis.pp_reason reason
                   | Some (intended, None) ->
                       Fmt.pf ppf "  intended query: %s@." intended;
                       Fmt.pf ppf
                         "  structural verdict: same structure (the regular \
                          approximation over-approximated)@."
                   | None ->
                       Fmt.pf ppf
                         "  structural verdict: no benign baseline found@."
                 end;
                 if not all then raise Exit)
           (P.solve ~config plan)
       with Exit -> ());
      let code =
        if !vulnerable > 0 then 0
        else begin
          let unpruned_sinks = plan.P.sinks - List.length plan.P.safe_sink_ids in
          if plan.P.paths_truncated && unpruned_sinks > 0 then
            Fmt.pf ppf
              "warning: path enumeration truncated at --max-paths=%d; %d \
               sink(s) not statically proved may have unexplored paths@."
              max_paths unpruned_sinks;
          Fmt.pf ppf "no exploitable path found@.";
          if !over_budget > 0 then 4 else 1
        end
      in
      Telemetry.Events.emit_global ~kind:"file"
        [
          ("file", Telemetry.Json.String path);
          ("code", Telemetry.Json.Int code);
          ("candidates", Telemetry.Json.Int (List.length plan.P.candidates));
          ( "pruned_statically",
            Telemetry.Json.Int (List.length plan.P.safe_sink_ids) );
          ("vulnerable", Telemetry.Json.Int !vulnerable);
          ("over_budget", Telemetry.Json.Int !over_budget);
        ];
      code

(* Directory mode: scan every .mphp file over the engine's worker
   pool, then print the per-app summary the paper's Fig. 11
   "vulnerable" column reports. Each worker renders its file report
   into a buffer; the main domain prints the buffers in file-name
   order, so the output is byte-identical for any --jobs value.
   Timing goes to stderr. *)
let check_dir dir attack structural max_paths static_prune prepass_paths config
    jobs ~trace_requested =
  let files = Cli.files_with_suffix ".mphp" dir in
  if files = [] then begin
    Fmt.epr "no .mphp files in %s@." dir;
    2
  end
  else begin
    let scan _worker file =
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      let code =
        check_one ~ppf ~err:ppf (Filename.concat dir file) attack false
          structural max_paths static_prune prepass_paths config
      in
      Format.pp_print_flush ppf ();
      (Buffer.contents buf, code)
    in
    let weight file = Cli.file_weight (Filename.concat dir file) in
    let results, stats =
      Engine.map ?jobs ~name:"webcheck" ~weight ~f:scan files
    in
    Cli.trace_lanes := stats.Engine.worker_spans;
    let vulnerable = ref [] in
    let failures = ref 0 in
    List.iter2
      (fun file (r : _ Engine.job_result) ->
        match r.outcome with
        | Engine.Done (output, code) ->
            Fmt.pr "%s@." output;
            if code = 0 then vulnerable := file :: !vulnerable
        | other ->
            incr failures;
            Fmt.pr "%s: %a@.@." file
              (Engine.pp_outcome (fun ppf _ -> Fmt.string ppf ""))
              other;
            match other with
            | Engine.Failed failure when trace_requested ->
                Cli.print_failure_backtrace file failure
            | _ -> ())
      files results;
    List.iter2
      (fun file (r : _ Engine.job_result) ->
        let outcome =
          match r.outcome with
          | Engine.Done (_, code) -> string_of_int code
          | Engine.Failed _ -> "failed"
          | Engine.Budget_exceeded Automata.Budget.Timeout -> "timeout"
          | Engine.Budget_exceeded _ -> "budget_exceeded"
        in
        Telemetry.Events.emit_global ~kind:"job"
          [
            ("file", Telemetry.Json.String file);
            ("code", Telemetry.Json.String outcome);
            ("worker", Telemetry.Json.Int r.worker);
            ("elapsed_ns", Telemetry.Json.Int (Int64.to_int r.elapsed_ns));
          ])
      files results;
    Fmt.pr "=== %s: %d files scanned, %d vulnerable ===@." dir
      (List.length files)
      (List.length !vulnerable);
    List.iter (fun f -> Fmt.pr "  vulnerable: %s@." f) (List.rev !vulnerable);
    Fmt.epr "scanned in %.2f s with %d worker(s)@."
      (Int64.to_float stats.Engine.wall_ns /. 1e9)
      stats.Engine.workers;
    if !failures > 0 then 5 else 0
  end

let check_cmd path attack all structural max_paths static_prune prepass_paths
    jobs budget_ms budget_states trace trace_tree no_cache metrics
    events verbose =
  Cli.setup_logs verbose;
  if no_cache then Automata.Store.set_enabled false;
  let config =
    Dprle.Solver.Config.make
      ~budget:(Automata.Budget.make ?wall_ms:budget_ms ?max_states:budget_states ())
      ()
  in
  Cli.with_observability ~metrics ~events @@ fun () ->
  Cli.with_trace ~name:"webcheck" ~trace ~trace_tree @@ fun () ->
  let trace_requested = trace <> None || trace_tree in
  if trace_requested then Printexc.record_backtrace true;
  if Sys.is_directory path then
    check_dir path attack structural max_paths static_prune prepass_paths
      config jobs ~trace_requested
  else
    check_one ~ppf:Fmt.stdout ~err:Fmt.stderr path attack all structural
      max_paths static_prune prepass_paths config

open Cmdliner

let () =
  (* Ctrl-C raises [Sys.Break] instead of killing the process, so the
     [with_trace] finaliser can flush a partial trace first. *)
  Sys.catch_break true;
  let path_arg =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Mini-PHP source file.")
  in
  let attack_arg =
    Arg.(
      value
      & opt attack_conv Webapp.Attack.contains_quote
      & info [ "attack" ] ~docv:"LANG"
          ~doc:"Attack language: quote, tautology, drop, comment, or any.")
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Report every vulnerable path, not just the first.")
  in
  let structural_arg =
    Arg.(
      value & flag
      & info [ "structural" ]
          ~doc:
            "Confirm exploits structurally: compare the parse structure of \
             the intended and subverted SQL (Su-Wassermann criterion).")
  in
  let max_paths_arg =
    Arg.(value & opt int Analysis.Pipeline.default_max_paths & info [ "max-paths" ] ~docv:"N" ~doc:"Path exploration bound.")
  in
  let static_prune_arg =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "static-prune" ]
                ~doc:
                  "Run the sound dataflow string analysis first and skip \
                   sinks it proves safe (default)." );
            ( false,
              info [ "no-static-prune" ]
                ~doc:
                  "Ablation: solve every path candidate without the static \
                   pass. Verdicts are identical; only the work differs." );
          ])
  in
  let prepass_paths_arg =
    Arg.(
      value
      & opt int Analysis.Prepass.default_path_budget
      & info [ "prepass-paths" ] ~docv:"N"
          ~doc:
            "Skip the static analysis when symbolic execution's own path \
             walk, counted without building constraints, finishes within \
             --max-paths and predicts at most $(docv) candidates (symbolic \
             execution alone is exact and cheaper there). 0 always runs \
             the static analysis.")
  in
  let trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON of the analysis (open in \
             chrome://tracing or Perfetto).")
  in
  let trace_tree_arg =
    Arg.(
      value & flag
      & info [ "trace-tree" ] ~doc:"Print the span tree of the analysis to stderr.")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Disable the interned language store and all memoized automata \
             operations (cache ablation; identical output, more work).")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Dump the final metrics registry snapshot to stderr on exit \
             (deterministic sorted text; timers report call counts only).")
  in
  let events_arg =
    Arg.(
      value & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Append one JSONL event record per file/sink/job to $(docv) \
             (schema dprle-events/1; each line is flushed, so a crash keeps \
             everything emitted so far).")
  in
  let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.") in
  let jobs_arg =
    Arg.(
      value & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for directory scans (default: the runtime's \
             recommended domain count). Output is byte-identical for any \
             value.")
  in
  let budget_ms_arg =
    Arg.(
      value & opt (some int) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget per candidate solve in milliseconds; an \
             over-budget candidate is skipped with a note (exit code 4 if \
             nothing vulnerable was found).")
  in
  let budget_states_arg =
    Arg.(
      value & opt (some int) None
      & info [ "budget-states" ] ~docv:"N"
          ~doc:
            "Cap on product/subset states materialized per candidate solve; \
             an over-budget candidate is skipped with a note.")
  in
  let term =
    Term.(
      const check_cmd $ path_arg $ attack_arg $ all_arg $ structural_arg
      $ max_paths_arg $ static_prune_arg $ prepass_paths_arg $ jobs_arg
      $ budget_ms_arg $ budget_states_arg $ trace_arg $ trace_tree_arg
      $ no_cache_arg $ metrics_arg $ events_arg
      $ verbose_arg)
  in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"when an exploitable path was found (or, for a \
                            directory scan, when every file was scanned).";
      Cmd.Exit.info 1 ~doc:"when no exploitable path was found.";
      Cmd.Exit.info 2 ~doc:"on a parse error or an empty directory.";
      Cmd.Exit.info 4 ~doc:"when no exploitable path was found but at least \
                            one candidate solve exceeded its \
                            $(b,--budget-ms)/$(b,--budget-states) budget \
                            (verdict unknown).";
      Cmd.Exit.info 5 ~doc:"when a directory-scan job raised an internal \
                            error.";
    ]
    @ Cmd.Exit.defaults
  in
  let info =
    Cmd.info "webcheck" ~version:"1.0.0" ~exits
      ~doc:
        "Find SQL-injection exploits in mini-PHP programs via symbolic \
         execution and the DPRLE decision procedure."
  in
  exit (Cmd.eval' (Cmd.v info term))
