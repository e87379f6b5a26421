module Nfa = Automata.Nfa
module Ops = Automata.Ops
module Store = Automata.Store
module Lang = Automata.Lang

(* Constraint checking goes through the store: the group-verification
   path in the solver re-evaluates the same constraints for every
   admitted ε-cut combination, mostly over repeated languages. *)
let rec expr_handle system a : System.expr -> Store.handle = function
  | System.Const c -> System.const_handle system c
  | System.Var v -> Assignment.find a v
  | System.Concat (e1, e2) ->
      Store.concat_lang (expr_handle system a e1) (expr_handle system a e2)
  | System.Union (e1, e2) ->
      Store.union_lang (expr_handle system a e1) (expr_handle system a e2)

let constraint_holds system a { System.lhs; rhs } =
  Store.subset (expr_handle system a lhs) (System.const_handle system rhs)

let satisfying system a =
  List.for_all (constraint_holds system a) (System.constraints system)

let ci_satisfying ~c1 ~c2 ~c3 { Ci.v1; v2; _ } =
  let subset m1 m2 = Store.subset (Store.intern m1) (Store.intern m2) in
  subset v1 c1 && subset v2 c2 && subset (Ops.concat_lang v1 v2) c3

let ci_all_solutions ~c1 ~c2 ~c3 solutions =
  let target = Ops.inter_lang (Ops.concat_lang c1 c2) c3 in
  let covered =
    List.fold_left
      (fun acc { Ci.v1; v2; _ } -> Ops.union_lang acc (Ops.concat_lang v1 v2))
      Nfa.empty_lang solutions
  in
  Store.equal (Store.intern covered) (Store.intern target)

(* Candidate extension strings for a variable: strings allowed by some
   constraint constant but missing from the assigned language. These
   are the plausible ways an assignment could fail to be maximal. *)
let extension_candidates ?(samples = 5) system a v =
  let lang = Store.nfa (Assignment.find a v) in
  List.concat_map
    (fun (_, const) ->
      let missing = Lang.difference (Store.nfa const) lang in
      Nfa.sample_words missing ~max_len:8 ~max_count:samples)
    (System.constants system)

let maximal_probe ?(samples = 5) system a =
  List.for_all
    (fun v ->
      let h = Assignment.find a v in
      List.for_all
        (fun w ->
          let extended =
            Assignment.of_list
              ((v, Store.union_lang h (Store.of_word w))
              :: List.remove_assoc v (Assignment.bindings a))
          in
          not (satisfying system extended))
        (extension_candidates ~samples system a v))
    (Assignment.variables a)

let pairwise_incomparable solutions =
  let arr = Array.of_list solutions in
  let n = Array.length arr in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && Assignment.subsumes arr.(i) arr.(j) then ok := false
    done
  done;
  !ok
