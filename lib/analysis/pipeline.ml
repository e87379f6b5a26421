module Budget = Automata.Budget
module Symexec = Webapp.Symexec

type fixpoint =
  | Disabled
  | Skipped of string
  | Ran of Fixpoint.result
  | Budget_stopped of Budget.stop

type t = {
  fixpoint : fixpoint;
  sinks : int;
  safe_sink_ids : int list;
  candidates : Symexec.query list;
  paths_truncated : bool;
}

let default_max_paths = Prepass.default_max_paths

(* An unlimited scan budget leaves the fixpoint unwrapped so that an
   enclosing budget still unwinds past it. *)
let run_fixpoint budget ~attack program =
  let analyze () = Fixpoint.analyze_cached ~attack program in
  if Budget.is_unlimited budget then Ran (analyze ())
  else
    match Budget.run budget analyze with
    | Ok r -> Ran r
    | Error stop -> Budget_stopped stop

let all_sinks_pruned t = t.sinks > 0 && List.length t.safe_sink_ids = t.sinks

let plan ?(budget = Budget.unlimited) ?(static_prune = true) ?prepass_paths
    ?(max_paths = default_max_paths) ~attack program =
  let fixpoint =
    if not static_prune then Disabled
    else
      (* the fixpoint only prunes; when the pre-pass's count-only walk
         shows that symbolic execution at this [max_paths] is already
         exhaustive and small, paying for both layers is the recorded
         regression *)
      let decision = Prepass.decide ?path_budget:prepass_paths ~max_paths program in
      if decision.Prepass.run_fixpoint then run_fixpoint budget ~attack program
      else Skipped decision.Prepass.reason
  in
  let safe_sink_ids =
    match fixpoint with Ran r -> Fixpoint.safe_sink_ids r | _ -> []
  in
  let sinks = List.length (Webapp.Ast.sinks program) in
  let pruned =
    { fixpoint; sinks; safe_sink_ids; candidates = []; paths_truncated = false }
  in
  (* Every sink statically safe ⇒ path enumeration would only produce
     candidates the filter below discards. Skipping it is what makes
     the prune pay for itself on safe pages. *)
  if all_sinks_pruned pruned then pruned
  else
    let { Symexec.candidates; paths_truncated } =
      Symexec.analyze ~max_paths ~attack program
    in
    let candidates =
      List.filter
        (fun (q : Symexec.query) -> not (List.mem q.sink_id safe_sink_ids))
        candidates
    in
    { pruned with candidates; paths_truncated }

let solve ?config t =
  Seq.map (fun q -> (q, Symexec.solve ?config q)) (List.to_seq t.candidates)

type status = Proved_safe_statically | Vulnerable | No_exploit | Budget_exceeded

let classify (v : Symexec.verdict) =
  match (v.budget, v.assignment) with
  | Symexec.Budget_exceeded _, _ -> Budget_exceeded
  | Symexec.Within_budget, Some _ -> Vulnerable
  | Symexec.Within_budget, None -> No_exploit

let status_name = function
  | Proved_safe_statically -> "proved_safe_statically"
  | Vulnerable -> "vulnerable"
  | No_exploit -> "no_exploit"
  | Budget_exceeded -> "budget_exceeded"
