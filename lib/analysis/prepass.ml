module Ast = Webapp.Ast
module Metrics = Telemetry.Metrics

let c_skip = Metrics.Counter.make "analysis.prepass.skip"
let c_run = Metrics.Counter.make "analysis.prepass.run"

type decision = {
  run_fixpoint : bool;
  reason : string;
  sinks : int;
  has_loop : bool;
  est_paths : int;
}

(* Taint: the set of variables whose value may depend on an input
   read. Control flow is ignored (any assignment taints), and the
   statement list is scanned twice so a read-before-write of a
   variable assigned later in program order still registers — an
   over-approximation, which errs toward running the fixpoint. *)
let rec expr_tainted tainted = function
  | Ast.Str _ -> false
  | Ast.Input _ -> true
  | Ast.Var v -> List.mem v tainted
  | Ast.Concat (a, b) -> expr_tainted tainted a || expr_tainted tainted b
  | Ast.Sanitize (_, e) -> expr_tainted tainted e

let taint_pass program tainted =
  let tainted = ref tainted in
  let rec stmt = function
    | Ast.Assign (v, e) ->
        if expr_tainted !tainted e && not (List.mem v !tainted) then
          tainted := v :: !tainted
    | Ast.If (_, t, f) ->
        List.iter stmt t;
        List.iter stmt f
    | Ast.While (_, body) -> List.iter stmt body
    | Ast.Exit | Ast.Query _ | Ast.Echo _ -> ()
  in
  List.iter stmt program;
  !tainted

(* Count the branches the symbolic executor will actually fork on: a
   guard over a tainted operand doubles the path space; a guard over
   concrete data is constant-folded and forks nothing. The estimate
   is capped (it only ever feeds a ≤ comparison). *)
let cap = 1 lsl 20

let estimate program tainted =
  let has_loop = ref false in
  let paths = ref 1 in
  let double () = if !paths < cap then paths := !paths * 2 in
  let rec stmt = function
    | Ast.Assign _ | Ast.Exit | Ast.Query _ | Ast.Echo _ -> ()
    | Ast.If (c, t, f) ->
        if expr_tainted tainted (Webapp.Semantics.cond_operand c) then double ();
        List.iter stmt t;
        List.iter stmt f
    | Ast.While (_, body) ->
        has_loop := true;
        List.iter stmt body
  in
  List.iter stmt program;
  (!has_loop, !paths)

let default_path_budget = 8

let decide ?(path_budget = default_path_budget) program =
  let sinks = List.length (Ast.sinks program) in
  let tainted = taint_pass program (taint_pass program []) in
  let has_loop, est_paths = estimate program tainted in
  let skip reason =
    Metrics.Counter.incr c_skip 1;
    { run_fixpoint = false; reason; sinks; has_loop; est_paths }
  in
  let run reason =
    Metrics.Counter.incr c_run 1;
    { run_fixpoint = true; reason; sinks; has_loop; est_paths }
  in
  if path_budget <= 0 then run "prepass disabled"
  else if sinks = 0 then skip "no sinks"
  else if has_loop then run "loops need widening"
  else if est_paths <= path_budget then
    skip (Printf.sprintf "loop-free, ~%d path(s)" est_paths)
  else run (Printf.sprintf "~%d paths exceed the enumeration budget" est_paths)
