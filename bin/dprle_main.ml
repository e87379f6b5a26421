(* dprle — stand-alone constraint solver in the style of the tool the
   paper released: reads a constraint file, prints the disjunctive
   satisfying assignments (or "unsat"). *)

let read_system path =
  match Dprle.Sysparse.parse_file path with
  | Ok system -> Ok system
  | Error e -> Error (Fmt.str "%s: %a" path Dprle.Sysparse.pp_error e)

let print_assignment index a ~witnesses_only =
  Fmt.pr "@[<v2>solution %d:@ " (index + 1);
  if witnesses_only then Fmt.pr "%a@ " Dprle.Assignment.pp_witnesses a
  else begin
    Fmt.pr "%a" Dprle.Assignment.pp a;
    Fmt.pr "witness: %a@ " Dprle.Assignment.pp_witnesses a
  end;
  Fmt.pr "@]@."

let budget_of ~budget_ms ~budget_states =
  Automata.Budget.make ?wall_ms:budget_ms ?max_states:budget_states ()

module Snapshot = Telemetry.Metrics.Snapshot

(* Common tail fields of a per-solve event: total attributed timer
   self-time plus the store's hit/miss deltas over the bracket. *)
let obs_fields diff =
  let module J = Telemetry.Json in
  let timer_self_total =
    List.fold_left
      (fun acc (_, _, (s : Snapshot.timer_stat)) -> Int64.add acc s.self_ns)
      0L (Snapshot.timers diff)
  in
  [
    ("timer_self_ns_total", J.Int (Int64.to_int timer_self_total));
    ( "store",
      J.Obj
        [
          ("intern_hit", J.Int (Snapshot.counter_total diff "store.intern.hit"));
          ("intern_miss", J.Int (Snapshot.counter_total diff "store.intern.miss"));
          ("opcache_hit", J.Int (Snapshot.counter_total diff "store.opcache.hit"));
          ("opcache_miss", J.Int (Snapshot.counter_total diff "store.opcache.miss"));
        ] );
  ]

let solve_cmd path first max_solutions combination_limit budget_ms budget_states
    witnesses_only dot smtlib stats trace trace_tree no_cache
    analyze metrics events verbose =
  Cli.setup_logs verbose;
  if no_cache then Automata.Store.set_enabled false;
  Cli.with_observability ~metrics ~events @@ fun () ->
  match read_system path with
  | Error msg ->
      Fmt.epr "error: %s@." msg;
      2
  | Ok system -> (
      let config =
        Dprle.Solver.Config.make
          ~max_solutions:(if first then 1 else max_solutions)
          ~combination_limit
          ~budget:(budget_of ~budget_ms ~budget_states)
          ~analyze ()
      in
      let before_obs = Snapshot.of_default () in
      let emit_solve ~outcome ~solutions =
        let diff = Snapshot.diff ~after:(Snapshot.of_default ()) ~before:before_obs in
        Telemetry.Events.emit_global ~kind:"solve"
          ([
             ("file", Telemetry.Json.String path);
             ("outcome", Telemetry.Json.String outcome);
             ("solutions", Telemetry.Json.Int solutions);
           ]
          @ obs_fields diff)
      in
      let solved =
        Cli.with_trace ~name:"dprle" ~trace ~trace_tree @@ fun () ->
        (match dot with
        | None -> ()
        | Some dot_path ->
            Out_channel.with_open_text dot_path (fun oc ->
                Out_channel.output_string oc
                  (Dprle.Depgraph.to_dot (Dprle.Depgraph.of_system system))));
        (match smtlib with
        | None -> ()
        | Some smt_path ->
            Out_channel.with_open_text smt_path (fun oc ->
                Out_channel.output_string oc (Dprle.Smtlib.of_system system)));
        if stats then
          Result.map
            (fun (outcome, report) -> (outcome, Some report))
            (Dprle.Report.solve_with_report ~config system)
        else
          Result.map
            (fun outcome -> (outcome, None))
            (Dprle.Solver.run config system)
      in
      match solved with
      | Error err ->
          emit_solve ~outcome:"budget_exceeded" ~solutions:0;
          Fmt.epr "error: %a@." Dprle.Solver.Error.pp err;
          4
      | Ok (outcome, report) -> (
          Option.iter (fun r -> Fmt.pr "%a@.@." Dprle.Report.pp r) report;
          match outcome with
          | Dprle.Solver.Unsat { reason; _ } ->
              emit_solve ~outcome:"unsat" ~solutions:0;
              Fmt.pr "unsat: %s@." (Dprle.Solver.unsat_message reason);
              1
          | Dprle.Solver.Sat solutions ->
              emit_solve ~outcome:"sat" ~solutions:(List.length solutions);
              Fmt.pr "sat: %d disjunctive solution(s)@."
                (List.length solutions);
              List.iteri
                (fun i a -> print_assignment i a ~witnesses_only)
                solutions;
              0))

let check_cmd path budget_ms budget_states no_cache analyze
    metrics events verbose =
  Cli.setup_logs verbose;
  if no_cache then Automata.Store.set_enabled false;
  Cli.with_observability ~metrics ~events @@ fun () ->
  match read_system path with
  | Error msg ->
      Fmt.epr "error: %s@." msg;
      2
  | Ok system -> (
      let config =
        Dprle.Solver.Config.make ~max_solutions:1
          ~budget:(budget_of ~budget_ms ~budget_states)
          ~analyze ()
      in
      match Dprle.Solver.run config system with
      | Error err ->
          Fmt.epr "error: %a@." Dprle.Solver.Error.pp err;
          4
      | Ok (Dprle.Solver.Sat _) ->
          Fmt.pr "sat@.";
          0
      | Ok (Dprle.Solver.Unsat { reason; _ }) ->
          Fmt.pr "unsat: %s@." (Dprle.Solver.unsat_message reason);
          1)

(* Static lint: every check in [Dprle.Static], not just the empty-rhs
   warning [Solver.run] emits on its own. No solving happens — the
   heaviest work is the analyzer's passes. *)
let lint_cmd path dot verbose =
  Cli.setup_logs verbose;
  match read_system path with
  | Error msg ->
      Fmt.epr "error: %s@." msg;
      2
  | Ok system ->
      (match dot with
      | None -> ()
      | Some dot_path ->
          Out_channel.with_open_text dot_path (fun oc ->
              Out_channel.output_string oc
                (Dprle.Depgraph.to_dot (Dprle.Depgraph.of_system system))));
      let findings = Dprle.Static.lint system in
      List.iter (fun f -> Fmt.pr "%a@." Dprle.Static.pp_finding f) findings;
      if findings = [] then begin
        Fmt.pr "no findings@.";
        0
      end
      else 1

(* The pre-solve analyzer as its own subcommand: run the four static
   passes — normalize, bounds, discharge, slice — and print what each
   did, without ever invoking the solver proper. The blame a bare
   "unsat" cannot give lives here: a refuted system reports its
   1-minimal core. *)
let analyze_cmd path goals dot verbose =
  Cli.setup_logs verbose;
  match read_system path with
  | Error msg ->
      Fmt.epr "error: %s@." msg;
      2
  | Ok system -> (
      match Dprle.Analyze.run ~goals system with
      | exception Invalid_argument msg ->
          Fmt.epr "error: %s@." msg;
          2
      | a ->
          let open Dprle.Analyze in
          let stats = a.stats in
          let n_in = List.length (Dprle.System.constraints system) in
          Fmt.pr "system: %d constraint(s), %d variable(s)@." n_in
            (List.length (Dprle.System.variables system));
          Fmt.pr "normalize: %d folded, %d deduped@." stats.folded
            stats.deduped;
          List.iter
            (fun (v, b) ->
              Fmt.pr "bound: %s <- %d contribution(s)%a@." v b.contributions
                Fmt.(
                  option (fun ppf w -> pf ppf ", shortest witness %S" w))
                b.witness)
            (Lazy.force a.bounds);
          Fmt.pr "discharged: %d implied constraint(s)@." stats.discharged;
          (match stats.sliced_vars with
          | [] -> ()
          | vs ->
              Fmt.pr "sliced: %d constraint(s) over goal-independent \
                      variable(s) %s@."
                stats.sliced_constraints (String.concat ", " vs));
          (match dot with
          | None -> ()
          | Some dot_path ->
              (* the original graph, with the post-slice cone filled:
                 what survives for the solver vs. what the goals never
                 reach *)
              let cone =
                List.map
                  (fun v -> Dprle.Depgraph.Var v)
                  (Dprle.System.variables a.system)
              in
              Out_channel.with_open_text dot_path (fun oc ->
                  Out_channel.output_string oc
                    (Dprle.Depgraph.to_dot ~highlight:cone
                       (Dprle.Depgraph.of_system system))));
          (match a.refute with
          | Some { cause; core } ->
              Fmt.pr "verdict: unsat — %a@." pp_cause cause;
              Fmt.pr "core: %s@."
                (String.concat "; "
                   (List.map (Fmt.str "%a" Dprle.System.pp_constr) core));
              1
          | None ->
              Fmt.pr "verdict: unknown — %d constraint(s) remain for the \
                      solver@."
                (List.length (Dprle.System.constraints a.system));
              0))

(* ------------------------------------------------------------------ *)
(* Profile: run a workload under full cost accounting, then print the
   attribution this subcommand exists for — the top ops by self time,
   the per-tier breakdown, and the store's cache-effectiveness ledger
   (ROADMAP item 3's "which caches pay for themselves" signal). *)

let pp_op_labels ppf = function
  | [] -> ()
  | l ->
      Fmt.pf ppf "{%s}"
        (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l))

let print_profile ~top diff =
  let timers =
    List.filter
      (fun (_, _, (s : Snapshot.timer_stat)) -> s.count > 0)
      (Snapshot.timers diff)
  in
  let ms ns = Int64.to_float ns /. 1e6 in
  let by_self =
    List.sort
      (fun (_, _, (a : Snapshot.timer_stat)) (_, _, (b : Snapshot.timer_stat)) ->
        Int64.compare b.self_ns a.self_ns)
      timers
  in
  Fmt.pr "== top ops by self time ==@.";
  Fmt.pr "%-42s %10s %12s %12s %12s@." "op" "count" "self(ms)" "total(ms)"
    "max(ms)";
  List.iteri
    (fun i (name, labels, (s : Snapshot.timer_stat)) ->
      if i < top then
        Fmt.pr "%-42s %10d %12.3f %12.3f %12.3f@."
          (Fmt.str "%s%a" name pp_op_labels labels)
          s.count (ms s.self_ns) (ms s.total_ns) (ms s.max_ns))
    by_self;
  let tiers = Hashtbl.create 8 in
  List.iter
    (fun (name, _, (s : Snapshot.timer_stat)) ->
      let tier =
        match String.index_opt name '.' with
        | Some i -> String.sub name 0 i
        | None -> name
      in
      let cur = Option.value (Hashtbl.find_opt tiers tier) ~default:0L in
      Hashtbl.replace tiers tier (Int64.add cur s.self_ns))
    timers;
  let total = Hashtbl.fold (fun _ v acc -> Int64.add acc v) tiers 0L in
  Fmt.pr "@.== self time by tier ==@.";
  List.iter
    (fun (tier, ns) ->
      Fmt.pr "%-12s %12.3f ms %6.1f%%@." tier (ms ns)
        (if total = 0L then 0.
         else 100. *. Int64.to_float ns /. Int64.to_float total))
    (List.sort
       (fun (_, a) (_, b) -> Int64.compare b a)
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tiers []));
  Fmt.pr "@.== cache-effectiveness ledger ==@.";
  Fmt.pr "%a" Automata.Store.Ledger.pp (Automata.Store.Ledger.of_snapshot diff)

(* The corpus workload is webcheck's pipeline at webcheck's defaults
   — pre-pass, dataflow fixpoint, symbolic execution, then solves for
   the sinks the fixpoint could not discharge — so every instrumented
   tier shows up in the attribution. *)
let profile_corpus name =
  match
    List.find_opt (fun a -> a.Corpus.Fig11.name = name) Corpus.Fig11.apps
  with
  | None ->
      Error
        (Fmt.str "unknown corpus %S (have: %s)" name
           (String.concat ", "
              (List.map (fun a -> a.Corpus.Fig11.name) Corpus.Fig11.apps)))
  | Some app ->
      Ok
        (fun () ->
          List.iter
            (fun (_, program) ->
              Analysis.Pipeline.plan ~attack:Corpus.Fig12.attack program
              |> Analysis.Pipeline.solve |> Seq.iter ignore)
            (Corpus.Fig11.generate app))

let profile_files path () =
  let files =
    if Sys.is_directory path then
      List.map (Filename.concat path) (Cli.files_with_suffix ".dprle" path)
    else [ path ]
  in
  List.iter
    (fun file ->
      match Dprle.Sysparse.parse_file file with
      | Error e -> Fmt.epr "warning: %s: %a@." file Dprle.Sysparse.pp_error e
      | Ok system ->
          ignore (Dprle.Solver.run Dprle.Solver.Config.default system))
    files

let profile_cmd target corpus top metrics events no_cache
    verbose =
  Cli.setup_logs verbose;
  if no_cache then Automata.Store.set_enabled false;
  Cli.with_observability ~metrics ~events @@ fun () ->
  let workload =
    match (corpus, target) with
    | Some name, _ -> profile_corpus name
    | None, Some path when Sys.file_exists path -> Ok (profile_files path)
    | None, Some path -> Error (Fmt.str "%s: no such file or directory" path)
    | None, None -> profile_corpus "eve"
  in
  match workload with
  | Error msg ->
      Fmt.epr "error: %s@." msg;
      2
  | Ok run ->
      let before = Snapshot.of_default () in
      run ();
      let diff = Snapshot.diff ~after:(Snapshot.of_default ()) ~before in
      print_profile ~top diff;
      0

(* --wire mode: the positional argument is a JSONL file of
   dprle-wire/1 request frames ("-" = stdin); responses stream to
   stdout through the same codec the daemon uses. Requests run
   sequentially in-process, so consecutive frames share one warm
   domain-local store — the single-shot twin of [dprle serve]. *)
let run_wire source =
  let input =
    if source = "-" then Ok (In_channel.input_all stdin)
    else if Sys.file_exists source && not (Sys.is_directory source) then
      Ok (In_channel.with_open_text source In_channel.input_all)
    else Error (Fmt.str "%s: no such file" source)
  in
  match input with
  | Error msg ->
      Fmt.epr "error: %s@." msg;
      2
  | Ok text ->
      let ok = ref 0 and errors = ref 0 in
      List.iter
        (fun line ->
          if String.trim line <> "" then begin
            let resp =
              match Api.decode_request line with
              | Error rej ->
                  incr errors;
                  Api.error_response ~id:"" rej
              | Ok req -> (
                  let resp = Serve.Handler.handle req in
                  (match resp.Api.Response.payload with
                  | Api.Response.Error _ -> incr errors
                  | _ -> incr ok);
                  resp)
            in
            print_string (Api.encode_response resp);
            print_newline ()
          end)
        (String.split_on_char '\n' text);
      Fmt.epr "%d response(s), %d error(s)@." (!ok + !errors) !errors;
      if !errors > 0 then 1 else 0

(* Batch mode: every .dprle file in a directory, fanned out over the
   engine's worker pool. Per-file results print in file-name order no
   matter how many workers ran, so the output is byte-identical for
   any --jobs value; timing goes to stderr. *)
let batch_cmd dir wire jobs budget_ms budget_states max_solutions
    combination_limit trace trace_tree no_cache analyze metrics
    events verbose =
  Cli.setup_logs verbose;
  if no_cache then Automata.Store.set_enabled false;
  Cli.with_observability ~metrics ~events @@ fun () ->
  if wire then run_wire dir
  else if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Fmt.epr "error: %s: not a directory@." dir;
    2
  end
  else begin
    let files = Cli.files_with_suffix ".dprle" dir in
    if files = [] then begin
      Fmt.epr "error: no .dprle files in %s@." dir;
      2
    end
    else
      Cli.with_trace ~name:"dprle" ~trace ~trace_tree @@ fun () ->
      if trace <> None || trace_tree then Printexc.record_backtrace true;
      let config =
        Dprle.Solver.Config.make ~max_solutions ~combination_limit ~analyze ()
      in
      let solve_file _worker file =
        match Dprle.Sysparse.parse_file (Filename.concat dir file) with
        | Error e -> `Parse_error (Fmt.str "%a" Dprle.Sysparse.pp_error e)
        | Ok system -> (
            match Dprle.Solver.run config system with
            | Ok (Dprle.Solver.Sat solutions) -> `Sat (List.length solutions)
            | Ok (Dprle.Solver.Unsat { reason; _ }) -> `Unsat reason
            | Error (Dprle.Solver.Error.Budget_exceeded stop) ->
                (* the job's ambient engine budget fired mid-solve and
                   [Solver.run] caught it; hand it back to the engine
                   so every budget trip classifies the same way *)
                raise (Automata.Budget.Exceeded stop))
      in
      let results, stats =
        Engine.map ?jobs
          ~budget:(budget_of ~budget_ms ~budget_states)
          ~name:"batch"
          ~weight:(fun file -> Cli.file_weight (Filename.concat dir file))
          ~f:solve_file files
      in
      Cli.trace_lanes := stats.Engine.worker_spans;
      let sat = ref 0
      and unsat = ref 0
      and parse_errors = ref 0
      and budget_hits = ref 0
      and failures = ref 0 in
      List.iter2
        (fun file (r : _ Engine.job_result) ->
          match r.outcome with
          | Engine.Done (`Sat n) ->
              incr sat;
              Fmt.pr "%s: sat (%d solution(s))@." file n
          | Engine.Done (`Unsat reason) ->
              incr unsat;
              Fmt.pr "%s: unsat — %s@." file (Dprle.Solver.unsat_message reason)
          | Engine.Done (`Parse_error msg) ->
              incr parse_errors;
              Fmt.pr "%s: parse error: %s@." file msg
          | Engine.Budget_exceeded stop ->
              incr budget_hits;
              Fmt.pr "%s: budget exceeded: %a@." file Automata.Budget.pp_stop stop
          | Engine.Failed failure ->
              incr failures;
              Fmt.pr "%s: internal failure: %s@." file failure.Engine.message;
              if trace <> None || trace_tree then
                Cli.print_failure_backtrace file failure)
        files results;
      List.iter2
        (fun file (r : _ Engine.job_result) ->
          let outcome =
            match r.outcome with
            | Engine.Done (`Sat _) -> "sat"
            | Engine.Done (`Unsat _) -> "unsat"
            | Engine.Done (`Parse_error _) -> "parse_error"
            | Engine.Budget_exceeded Automata.Budget.Timeout -> "timeout"
            | Engine.Budget_exceeded _ -> "budget_exceeded"
            | Engine.Failed _ -> "failed"
          in
          Telemetry.Events.emit_global ~kind:"job"
            [
              ("file", Telemetry.Json.String file);
              ("outcome", Telemetry.Json.String outcome);
              ("worker", Telemetry.Json.Int r.worker);
              ("elapsed_ns", Telemetry.Json.Int (Int64.to_int r.elapsed_ns));
            ])
        files results;
      Fmt.pr "=== %d system(s): %d sat, %d unsat, %d parse error(s), %d over \
              budget, %d failure(s) ===@."
        (List.length files) !sat !unsat !parse_errors !budget_hits !failures;
      Fmt.epr "solved in %.3f s with %d worker(s)@."
        (Int64.to_float stats.Engine.wall_ns /. 1e9)
        stats.Engine.workers;
      if !failures > 0 then 5
      else if !parse_errors > 0 then 3
      else if !budget_hits > 0 then 4
      else 0
  end

(* Resident daemon: bind the wire socket, serve until a shutdown
   frame. Human-facing chatter goes to stderr; stdout stays empty (the
   protocol lives on the socket). *)
let serve_cmd listen jobs max_frame_bytes max_queue batch_max metrics events
    verbose =
  Cli.setup_logs verbose;
  Cli.with_observability ~metrics ~events @@ fun () ->
  match Serve.Server.listen_of_string listen with
  | Error msg ->
      Fmt.epr "error: %s@." msg;
      2
  | Ok l -> (
      let cfg =
        {
          (Serve.Server.default_config l) with
          Serve.Server.jobs;
          max_frame_bytes;
          max_queue;
          batch_max;
        }
      in
      let on_ready _ =
        Fmt.epr "dprle: listening on %a@." Serve.Server.pp_listen l
      in
      match Serve.Server.run ~on_ready cfg with
      | outcome ->
          Fmt.epr "dprle: served %d request(s), %d rejected, %d malformed@."
            outcome.Serve.Server.served outcome.Serve.Server.rejected
            outcome.Serve.Server.malformed;
          0
      | exception Unix.Unix_error (e, fn, arg) ->
          Fmt.epr "error: %s: %s(%s)@." (Unix.error_message e) fn arg;
          2)

open Cmdliner

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Constraint file.")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.")

let budget_ms_arg =
  Arg.(
    value & opt (some int) None
    & info [ "budget-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget per solve in milliseconds; an over-budget solve \
           stops with a structured budget-exceeded outcome (exit code 4).")

let budget_states_arg =
  Arg.(
    value & opt (some int) None
    & info [ "budget-states" ] ~docv:"N"
        ~doc:
          "Cap on product/subset states materialized per solve; exceeding it \
           stops the solve with a budget-exceeded outcome (exit code 4).")

let max_solutions_arg =
  Arg.(
    value
    & opt int Dprle.Solver.Config.default.max_solutions
    & info [ "max-solutions" ] ~docv:"N" ~doc:"Cap on disjunctive solutions.")

let combination_limit_arg =
  Arg.(
    value
    & opt int Dprle.Solver.Config.default.combination_limit
    & info [ "combination-limit" ] ~docv:"N"
        ~doc:"Cap on ε-cut combinations explored per CI-group.")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON of the solve (open in \
           chrome://tracing or Perfetto).")

let trace_tree_arg =
  Arg.(
    value & flag
    & info [ "trace-tree" ] ~doc:"Print the span tree of the solve to stderr.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the interned language store and all memoized automata \
           operations (cache ablation; identical output, more work).")

let analyze_flag_arg =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "analyze" ]
              ~doc:
                "Run the pre-solve static analysis (normalize, bounds \
                 propagation, discharge, slicing) before building any \
                 group machine. This is the default." );
          ( false,
            info [ "no-analyze" ]
              ~doc:
                "Skip the pre-solve static analysis and hand the system \
                 to the solver untouched (ablation; verdicts are \
                 identical, only blame and work differ)." );
        ])

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Dump the final metrics registry snapshot to stderr on exit \
           (deterministic sorted text; timers report call counts only).")

let events_arg =
  Arg.(
    value & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Append one JSONL event record per solve/job to $(docv) (schema \
           dprle-events/1; the file survives crashes — each line is flushed).")

let solve_term =
  let first =
    Arg.(value & flag & info [ "first" ] ~doc:"Stop at the first solution.")
  in
  let witnesses_only =
    Arg.(
      value & flag
      & info [ "witnesses" ] ~doc:"Print only witness strings, not languages.")
  in
  let dot =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write the dependency graph as DOT.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print solver instrumentation.")
  in
  let smtlib =
    Arg.(
      value & opt (some string) None
      & info [ "smtlib" ] ~docv:"FILE"
          ~doc:"Export the system as an SMT-LIB 2.6 strings-theory script.")
  in
  Term.(
    const solve_cmd $ path_arg $ first $ max_solutions_arg
    $ combination_limit_arg $ budget_ms_arg $ budget_states_arg
    $ witnesses_only $ dot $ smtlib $ stats $ trace_arg $ trace_tree_arg
    $ no_cache_arg $ analyze_flag_arg $ metrics_arg
    $ events_arg $ verbose_arg)

let batch_term =
  let dir_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:
            "Directory of .dprle constraint files — or, with $(b,--wire), a \
             JSONL file of dprle-wire/1 request frames ($(b,-) = stdin).")
  in
  let wire_arg =
    Arg.(
      value & flag
      & info [ "wire" ]
          ~doc:
            "Wire mode: read dprle-wire/1 request frames (one JSON object \
             per line) from $(i,DIR) and write one response frame per line \
             to stdout — the same codec the $(b,serve) daemon speaks. \
             Requests run sequentially in-process and carry their own \
             budgets; $(b,--budget-ms)/$(b,--budget-states) are ignored.")
  in
  let jobs =
    Arg.(
      value & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains (default: the runtime's recommended domain \
             count). Output is byte-identical for any value.")
  in
  Term.(
    const batch_cmd $ dir_arg $ wire_arg $ jobs $ budget_ms_arg
    $ budget_states_arg $ max_solutions_arg $ combination_limit_arg
    $ trace_arg $ trace_tree_arg $ no_cache_arg
    $ analyze_flag_arg $ metrics_arg $ events_arg $ verbose_arg)

let profile_term =
  let target =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"PATH"
          ~doc:
            "A .dprle file or a directory of them; when omitted, \
             $(b,--corpus) selects the workload (default: eve).")
  in
  let corpus =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"NAME"
          ~doc:
            "Profile a synthetic fig. 11 corpus application through the full \
             pipeline: dataflow fixpoint, symbolic execution, and solves for \
             the undischarged sinks.")
  in
  let top =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"N" ~doc:"Rows in the self-time table.")
  in
  Term.(
    const profile_cmd $ target $ corpus $ top $ metrics_arg $ events_arg
    $ no_cache_arg $ verbose_arg)

let solve_exits =
  [
    Cmd.Exit.info 0 ~doc:"on a satisfiable system.";
    Cmd.Exit.info 1 ~doc:"on an unsatisfiable system.";
    Cmd.Exit.info 2 ~doc:"on a parse error (position reported on stderr).";
    Cmd.Exit.info 4 ~doc:"when the $(b,--budget-ms)/$(b,--budget-states) \
                          budget was exhausted before a verdict.";
  ]
  @ Cmd.Exit.defaults

let batch_exits =
  [
    Cmd.Exit.info 0 ~doc:"when every system was decided.";
    Cmd.Exit.info 2 ~doc:"when $(i,DIR) is missing or holds no .dprle files.";
    Cmd.Exit.info 3 ~doc:"when at least one file failed to parse.";
    Cmd.Exit.info 4 ~doc:"when at least one solve exceeded its budget (and \
                          none failed to parse).";
    Cmd.Exit.info 5 ~doc:"when at least one job raised an internal error.";
  ]
  @ Cmd.Exit.defaults

let solve_cmd_info =
  Cmd.info "solve" ~exits:solve_exits
    ~doc:"Solve a system of subset constraints over regular languages."

let check_cmd_info =
  Cmd.info "check" ~exits:solve_exits
    ~doc:"Report only satisfiability (exit code 0/1)."

let lint_exits =
  [
    Cmd.Exit.info 0 ~doc:"when no findings were reported.";
    Cmd.Exit.info 1 ~doc:"when at least one finding was reported.";
    Cmd.Exit.info 2 ~doc:"on a parse error (position reported on stderr).";
  ]
  @ Cmd.Exit.defaults

let lint_cmd_info =
  Cmd.info "lint" ~exits:lint_exits
    ~doc:
      "Run every pre-solve static check (empty bounding constants, \
       analyzer unsat cores, unconstrained variables, coupled CI-groups) \
       without solving."

let lint_dot_arg =
  Arg.(
    value & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:"Write the dependency graph as DOT alongside the findings.")

let analyze_term =
  let goals =
    Arg.(
      value & opt_all string []
      & info [ "goal" ] ~docv:"VAR"
          ~doc:
            "Add $(docv) to the goal set for cone-of-influence slicing \
             (repeatable). Joined with any $(b,goal) statements in the \
             file; with no goals at all, slicing is disabled and every \
             constraint is kept.")
  in
  let dot =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Write the dependency graph of the original system as DOT, \
             with the post-analysis cone (the variables the solver would \
             still see) filled.")
  in
  Term.(
    const analyze_cmd $ path_arg $ goals $ dot
    $ verbose_arg)

let analyze_cmd_info =
  Cmd.info "analyze" ~exits:lint_exits
    ~doc:
      "Run only the pre-solve static analysis — constant folding and \
       duplicate dedup, regular bounds propagation, implied-constraint \
       discharge, and goal-directed slicing — and report what \
       each pass did. A statically refuted system exits 1 and prints its \
       1-minimal unsatisfiable core; anything else exits 0 with the \
       residue the solver proper would receive."

let profile_exits =
  [
    Cmd.Exit.info 0 ~doc:"when the workload ran.";
    Cmd.Exit.info 2 ~doc:"on an unknown corpus or missing $(i,PATH).";
  ]
  @ Cmd.Exit.defaults

let profile_cmd_info =
  Cmd.info "profile" ~exits:profile_exits
    ~doc:
      "Run a workload under cost accounting and print where the time went: \
       the top ops by self time, the per-tier breakdown, and the store's \
       cache-effectiveness ledger (net ns saved per memo table)."

let batch_cmd_info =
  Cmd.info "batch" ~exits:batch_exits
    ~doc:
      "Solve every .dprle file in a directory over a parallel worker pool. \
       Per-file results print in file-name order and are byte-identical for \
       any $(b,--jobs) value; timing goes to stderr. With $(b,--wire), \
       replay a JSONL file of dprle-wire/1 request frames instead."

let serve_term =
  let listen_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:
            "Listen address: $(b,unix:)$(i,PATH), $(b,tcp:)$(i,HOST:PORT), \
             or a bare Unix-socket path.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains in the resident pool. The default 1 routes every \
             request through the same domain-local store, maximizing warm \
             intern/op-cache hits.")
  in
  let max_frame_arg =
    Arg.(
      value & opt int Api.default_max_frame_bytes
      & info [ "max-frame-bytes" ] ~docv:"N"
          ~doc:"Reject request frames larger than $(docv) bytes.")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 256
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Hard cap on queued requests; beyond it everything is rejected.")
  in
  let batch_max_arg =
    Arg.(
      value & opt int 32
      & info [ "batch-max" ] ~docv:"N"
          ~doc:"Queued requests dispatched per pool batch.")
  in
  Term.(
    const serve_cmd $ listen_arg $ jobs_arg $ max_frame_arg $ max_queue_arg
    $ batch_max_arg $ metrics_arg $ events_arg $ verbose_arg)

let serve_cmd_info =
  Cmd.info "serve"
    ~exits:
      ([
         Cmd.Exit.info 0 ~doc:"on a clean shutdown (drained by a shutdown frame).";
         Cmd.Exit.info 2 ~doc:"when the listen address is invalid or cannot be bound.";
       ]
      @ Cmd.Exit.defaults)
    ~doc:
      "Run the resident solver daemon: line-delimited dprle-wire/1 JSON \
       frames over a Unix-domain or TCP socket, dispatched onto a \
       persistent worker pool whose interned-language store stays warm \
       across requests. HTTP scrapers (a connection starting with \
       $(b,GET )) receive a Prometheus-format metrics snapshot."

let main_info =
  Cmd.info "dprle" ~version:"1.0.0"
    ~doc:
      "Decision procedure for subset constraints over regular languages \
       (Hooimeijer & Weimer, PLDI 2009)."

let () =
  (* Ctrl-C raises [Sys.Break] instead of killing the process, so the
     [with_trace] finaliser can flush a partial trace first. *)
  Sys.catch_break true;
  exit
    (Cmd.eval'
       (Cmd.group main_info
          [
            Cmd.v solve_cmd_info solve_term;
            Cmd.v check_cmd_info
              Term.(
                const check_cmd $ path_arg $ budget_ms_arg $ budget_states_arg
                $ no_cache_arg $ analyze_flag_arg
                $ metrics_arg $ events_arg $ verbose_arg);
            Cmd.v batch_cmd_info batch_term;
            Cmd.v lint_cmd_info
              Term.(
                const lint_cmd $ path_arg $ lint_dot_arg
                $ verbose_arg);
            Cmd.v analyze_cmd_info analyze_term;
            Cmd.v profile_cmd_info profile_term;
            Cmd.v serve_cmd_info serve_term;
          ]))
