type event = Queried of string | Echoed of string

type result = { events : event list; exited : bool }

module SMap = Map.Make (String)

exception Exited

let rec eval_expr env inputs : Ast.expr -> string = function
  | Ast.Str s -> s
  | Ast.Var v -> (
      match SMap.find_opt v env with
      | Some s -> s
      | None -> invalid_arg (Printf.sprintf "Webapp.Eval: unassigned variable $%s" v))
  | Ast.Input name -> Option.value (List.assoc_opt name inputs) ~default:""
  | Ast.Concat (a, b) -> eval_expr env inputs a ^ eval_expr env inputs b
  | Ast.Sanitize (s, e) -> Semantics.apply s (eval_expr env inputs e)

let eval_cond env inputs c =
  Semantics.holds c (eval_expr env inputs (Semantics.cond_operand c))

let run ?(max_loop_iters = 100_000) program ~inputs =
  let events = ref [] in
  let iters = ref 0 in
  let rec exec env = function
    | [] -> env
    | stmt :: rest ->
        let env =
          match stmt with
          | Ast.Assign (v, e) -> SMap.add v (eval_expr env inputs e) env
          | Ast.Exit -> raise Exited
          | Ast.Query e ->
              events := Queried (eval_expr env inputs e) :: !events;
              env
          | Ast.Echo e ->
              events := Echoed (eval_expr env inputs e) :: !events;
              env
          | Ast.If (c, t, f) -> exec env (if eval_cond env inputs c then t else f)
          | Ast.While (c, body) ->
              let rec loop env =
                if not (eval_cond env inputs c) then env
                else begin
                  incr iters;
                  if !iters > max_loop_iters then raise Exited;
                  loop (exec env body)
                end
              in
              loop env
        in
        exec env rest
  in
  let exited =
    match exec SMap.empty program with
    | _ -> false
    | exception Exited -> true
  in
  { events = List.rev !events; exited }

let queries program ~inputs =
  List.filter_map
    (function Queried q -> Some q | Echoed _ -> None)
    (run program ~inputs).events

let vulnerable_run ~attack program ~inputs =
  List.exists (Automata.Nfa.accepts attack) (queries program ~inputs)
