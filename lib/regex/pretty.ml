let rec flatten_alt = function
  | Ast.Alt (a, b) -> flatten_alt a @ flatten_alt b
  | r -> [ r ]

let build_alt = function
  | [] -> Ast.Empty
  | first :: rest -> List.fold_left Ast.alt first rest

(* Semantic pruning: drop an alternation branch whose language is
   contained in a sibling's. Quadratic in the number of branches, one
   language query per comparison, each a memoized store inclusion. *)
let prune_alternatives r =
  let rec go r =
    match r with
    | Ast.Alt _ ->
        let branches = List.map go (flatten_alt r) in
        let compiled =
          List.map (fun b -> (b, Compile.handle b)) branches
        in
        let subset = Automata.Store.subset in
        let keep =
          List.filteri
            (fun i (_, mi) ->
              not
                (List.exists
                   (fun (j, (_, mj)) ->
                     i <> j
                     && subset mi mj
                     && ((not (subset mj mi)) || j < i))
                   (List.mapi (fun j x -> (j, x)) compiled)))
            compiled
        in
        build_alt (List.map fst keep)
    | Ast.Seq (a, b) -> Ast.seq (go a) (go b)
    | Ast.Star a -> Ast.star (go a)
    | Ast.Plus a -> Ast.plus (go a)
    | Ast.Opt a -> Ast.opt (go a)
    | Ast.Repeat (a, lo, hi) -> Ast.repeat (go a) lo hi
    | leaf -> leaf
  in
  go r

let pretty m =
  Ast.to_string
    (Simplify.simplify (prune_alternatives (Simplify.simplify (State_elim.to_regex m))))
