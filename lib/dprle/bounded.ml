module Nfa = Automata.Nfa

type result = Sat of (string * string) list | Unsat_within_bound

module SSet = Set.Make (String)

let alphabet system =
  let labels =
    List.concat_map
      (fun (_, h) ->
        Nfa.fold_char_transitions (Automata.Store.nfa h) ~init:[]
          ~f:(fun acc _ cs _ -> cs :: acc))
      (System.constants system)
  in
  let blocks = Charset.refine labels in
  let covered = List.fold_left Charset.union Charset.empty blocks in
  let rest = Charset.complement covered in
  let blocks = if Charset.is_empty rest then blocks else rest :: blocks in
  List.sort_uniq Char.compare (List.map Charset.choose blocks)

(* Words over [alpha] in shortest-first order, capped. *)
let words alpha ~max_len ~cap =
  let out = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  Queue.add "" queue;
  while (not (Queue.is_empty queue)) && !count < cap do
    let w = Queue.take queue in
    out := w :: !out;
    incr count;
    if String.length w < max_len then
      List.iter (fun c -> Queue.add (w ^ String.make 1 c) queue) alpha
  done;
  List.rev !out

(* Exact check of one constraint under concrete variable words. With
   constants in the lhs the check quantifies over the whole constant
   language, so instead of sampling we test language-level inclusion
   with variables replaced by singleton languages. *)
let constraint_holds system bound { System.lhs; rhs } =
  let rec lang_of = function
    | System.Const c -> Automata.Store.nfa (System.const_handle system c)
    | System.Var v -> Nfa.of_word (List.assoc v bound)
    | System.Concat (a, b) -> Automata.Ops.concat_lang (lang_of a) (lang_of b)
    | System.Union (a, b) -> Automata.Ops.union_lang (lang_of a) (lang_of b)
  in
  Automata.Store.subset
    (Automata.Store.intern (lang_of lhs))
    (System.const_handle system rhs)

let check system words =
  let vars = System.variables system in
  let bound =
    List.map (fun v -> (v, Option.value (List.assoc_opt v words) ~default:"")) vars
  in
  List.for_all (constraint_holds system bound) (System.constraints system)

let solve ?(candidates_per_var = 4096) ~max_len system =
  let vars = System.variables system in
  let alpha = alphabet system in
  let candidates = words alpha ~max_len ~cap:candidates_per_var in
  let constraints =
    List.map
      (fun ({ System.lhs; _ } as c) -> (SSet.of_list (System.expr_variables lhs), c))
      (System.constraints system)
  in
  (* check a constraint as soon as its last variable gets bound *)
  let exception Found of (string * string) list in
  let rec assign bound remaining =
    match remaining with
    | [] -> raise (Found (List.rev bound))
    | v :: rest ->
        let now_bound = SSet.of_list (v :: List.map fst bound) in
        let ready =
          List.filter (fun (vs, _) -> SSet.mem v vs && SSet.subset vs now_bound) constraints
        in
        List.iter
          (fun w ->
            let bound' = (v, w) :: bound in
            if List.for_all (fun (_, c) -> constraint_holds system bound' c) ready
            then assign bound' rest)
          candidates
  in
  (* constant-only constraints must hold outright *)
  let constant_ok =
    List.for_all
      (fun (vs, c) -> (not (SSet.is_empty vs)) || constraint_holds system [] c)
      constraints
  in
  if not constant_ok then Unsat_within_bound
  else
    match assign [] vars with
    | () -> Unsat_within_bound
    | exception Found witness -> Sat witness
