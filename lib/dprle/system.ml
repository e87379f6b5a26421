type expr =
  | Const of string
  | Var of string
  | Concat of expr * expr
  | Union of expr * expr

type constr = { lhs : expr; rhs : string }

let rec expand_unions = function
  | (Const _ | Var _) as leaf -> [ leaf ]
  | Union (a, b) -> expand_unions a @ expand_unions b
  | Concat (a, b) ->
      let left = expand_unions a and right = expand_unions b in
      List.concat_map (fun l -> List.map (fun r -> Concat (l, r)) right) left

let leaves expr =
  let rec go acc = function
    | Concat (a, b) -> go (go acc a) b
    | Union _ -> invalid_arg "System.leaves: not a union-free alternative"
    | leaf -> leaf :: acc
  in
  List.rev (go [] expr)

module SMap = Map.Make (String)
module SSet = Set.Make (String)

type t = {
  (* each constant is bound to the handle its builder produced, so no
     language is keyed again because a system or a derived system
     carries it *)
  consts : Automata.Store.handle SMap.t;
  order : string list;
  constrs : constr list;
  goals : string list;
}

let rec expr_names vars consts = function
  | Const c -> (vars, SSet.add c consts)
  | Var v -> (SSet.add v vars, consts)
  | Concat (a, b) | Union (a, b) ->
      let vars, consts = expr_names vars consts a in
      expr_names vars consts b

let make ~consts ~constraints =
  let rec build map order = function
    | [] -> Ok (map, List.rev order)
    | (name, lang) :: rest ->
        if SMap.mem name map then Error (Printf.sprintf "duplicate constant %S" name)
        else build (SMap.add name lang map) (name :: order) rest
  in
  match build SMap.empty [] consts with
  | Error _ as e -> e
  | Ok (map, order) ->
      let vars, used =
        List.fold_left
          (fun (vars, used) { lhs; rhs } ->
            let vars, used = expr_names vars used lhs in
            (vars, SSet.add rhs used))
          (SSet.empty, SSet.empty) constraints
      in
      let missing = SSet.filter (fun c -> not (SMap.mem c map)) used in
      let clashing = SSet.inter vars (SSet.of_list (SMap.fold (fun k _ acc -> k :: acc) map [])) in
      if not (SSet.is_empty missing) then
        Error (Printf.sprintf "undefined constant %S" (SSet.min_elt missing))
      else if not (SSet.is_empty clashing) then
        Error
          (Printf.sprintf "%S is used both as a variable and as a constant"
             (SSet.min_elt clashing))
      else
        Ok { consts = map; order; constrs = constraints; goals = [] }

let make_exn ~consts ~constraints =
  match make ~consts ~constraints with
  | Ok t -> t
  | Error msg -> invalid_arg ("System.make_exn: " ^ msg)

let with_goals t goals =
  (match List.find_opt (fun g -> SMap.mem g t.consts) goals with
  | Some g -> invalid_arg (Printf.sprintf "System.with_goals: goal %S names a constant" g)
  | None -> ());
  let seen = Hashtbl.create 4 in
  let goals =
    List.filter
      (fun g ->
        if Hashtbl.mem seen g then false
        else begin
          Hashtbl.replace seen g ();
          true
        end)
      goals
  in
  { t with goals }

let const_of_regex s = Regex.Compile.handle (Regex.Parser.parse_exn s)

let const_of_pattern s =
  Regex.Compile.pattern_handle (Regex.Parser.parse_pattern_exn s)

(* Via the store's word fast path so repeated literals share one
   keyed handle without paying the canonical key again. *)
let const_of_word = Automata.Store.of_word

let constants t = List.map (fun name -> (name, SMap.find name t.consts)) t.order

let constraints t = t.constrs

let goals t = t.goals

(* Constraint-subset view used by the pre-solve analyzer: constants
   and goals are shared, so the reduced system holds the original's
   handles. *)
let with_constraints t constrs = { t with constrs }

let const_handle t name =
  match SMap.find_opt name t.consts with
  | Some h -> h
  | None ->
      invalid_arg (Printf.sprintf "System.const_handle: unknown constant %S" name)

let expr_variables e = SSet.elements (fst (expr_names SSet.empty SSet.empty e))

let variables t =
  let vars =
    List.fold_left
      (fun acc { lhs; _ } -> fst (expr_names acc SSet.empty lhs))
      SSet.empty t.constrs
  in
  SSet.elements vars

let size t = List.length t.constrs

let rec pp_expr ppf = function
  | Const c -> Fmt.string ppf c
  | Var v -> Fmt.string ppf v
  | Concat (a, b) -> Fmt.pf ppf "%a . %a" pp_atom a pp_atom b
  | Union (a, b) -> Fmt.pf ppf "%a | %a" pp_expr a pp_expr b

(* parenthesize unions inside concatenations *)
and pp_atom ppf = function
  | Union _ as e -> Fmt.pf ppf "(%a)" pp_expr e
  | e -> pp_expr ppf e

let pp_constr ppf { lhs; rhs } = Fmt.pf ppf "%a <= %s" pp_expr lhs rhs

let pp ppf t =
  List.iter (fun c -> Fmt.pf ppf "%a;@ " pp_constr c) t.constrs
