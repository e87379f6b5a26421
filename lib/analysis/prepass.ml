module Ast = Webapp.Ast
module Metrics = Telemetry.Metrics

let c_skip = Metrics.Counter.make "analysis.prepass.skip"
let c_run = Metrics.Counter.make "analysis.prepass.run"

type decision = {
  run_fixpoint : bool;
  reason : string;
  sinks : int;
  candidates : int;
  forks : int;
  truncated : bool;
}

let default_path_budget = 8
let default_max_paths = 4096

let plural n word = Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s")

let decide ?(path_budget = default_path_budget) ?(max_paths = default_max_paths)
    program =
  let decision ~run_fixpoint reason
      { Webapp.Symexec.candidates; forks; truncated } =
    Metrics.Counter.incr (if run_fixpoint then c_run else c_skip) 1;
    {
      run_fixpoint;
      reason;
      sinks = List.length (Ast.sinks program);
      candidates;
      forks;
      truncated;
    }
  in
  if path_budget <= 0 then
    decision ~run_fixpoint:true "prepass disabled"
      { candidates = 0; forks = 0; truncated = false }
  else
    match Webapp.Symexec.census ~max_paths program with
    | exception (Webapp.Symexec.Unassigned_variable _ as e) ->
        (* the walk read a variable no statement on its path assigned;
           the fixpoint reads it as any string and may still prove the
           sinks safe, so symbolic execution need never run *)
        decision ~run_fixpoint:true ("walk failed: " ^ Printexc.to_string e)
          { candidates = 0; forks = 0; truncated = true }
    | c ->
        let found =
          plural c.candidates "candidate" ^ " in " ^ plural c.forks "fork"
        in
        if c.truncated then
          decision ~run_fixpoint:true ("truncated walk, " ^ found) c
        else if c.candidates > path_budget then
          decision ~run_fixpoint:true
            (Printf.sprintf "%s exceed the budget of %d" found path_budget)
            c
        else decision ~run_fixpoint:false ("exhaustive walk, " ^ found) c
