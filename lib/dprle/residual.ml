module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Store = Automata.Store

module IS = Set.Make (Int)

(* States of [dfa] reachable from its start by words of [lang]:
   breadth-first search over the product, collecting the DFA
   component at the NFA's final state. *)
let reach_set (dfa : Dfa.t) (lang : Nfa.t) =
  let visited = Hashtbl.create 64 in
  let worklist = Queue.create () in
  let push pair =
    if not (Hashtbl.mem visited pair) then begin
      Hashtbl.add visited pair ();
      Queue.add pair worklist
    end
  in
  push (Nfa.start lang, Dfa.start dfa);
  let acc = ref IS.empty in
  while not (Queue.is_empty worklist) do
    let n, d = Queue.take worklist in
    if n = Nfa.final lang then acc := IS.add d !acc;
    List.iter (fun n' -> push (n', d)) (Nfa.eps_transitions_from lang n);
    List.iter
      (fun (cs, n') ->
        List.iter
          (fun (cs', d') ->
            if Charset.intersects cs cs' then push (n', d'))
          (Dfa.transitions dfa d))
      (Nfa.char_transitions lang n)
  done;
  !acc

(* Universal-acceptance subset construction: from the start set [t0],
   track the image of the set under each input; accept while the
   whole set stays within [good]. *)
let universal_subset_machine (dfa : Dfa.t) t0 good =
  let b = Nfa.Builder.create () in
  let final = Nfa.Builder.add_state b in
  let table = Hashtbl.create 64 in
  let worklist = Queue.create () in
  let materialize set =
    let key = IS.elements set in
    match Hashtbl.find_opt table key with
    | Some q -> q
    | None ->
        let q = Nfa.Builder.add_state b in
        Hashtbl.add table key q;
        if IS.subset set good then Nfa.Builder.add_eps b q final;
        Queue.add (set, q) worklist;
        q
  in
  let start = materialize t0 in
  (* Note: a set may leave [good] and re-enter (the image maps states,
     it does not accumulate them), so every reachable set must be
     expanded; only the final set's inclusion in [good] matters. *)
  while not (Queue.is_empty worklist) do
    let set, src = Queue.take worklist in
    let labels =
      IS.fold (fun q acc -> List.map fst (Dfa.transitions dfa q) @ acc) set []
    in
    List.iter
      (fun block ->
        let c = Charset.choose block in
        let image =
          IS.fold
            (fun q acc ->
              match Dfa.step dfa q c with
              | Some q' -> IS.add q' acc
              | None -> acc (* complete DFA: unreachable *))
            set IS.empty
        in
        Nfa.Builder.add_trans b src block (materialize image))
      (Charset.refine labels)
  done;
  Nfa.Builder.finish b ~start ~final

let max_middle_uncached ~pre ~post ~upper =
  (* complement-free: complete the DFA so every word has a run *)
  let dfa = Dfa.complement (Dfa.complement (Dfa.of_nfa upper)) in
  let t0 = reach_set dfa pre in
  if IS.is_empty t0 then Nfa.sigma_star
  else begin
    let post_dfa = Dfa.of_nfa post in
    let as_nfa = Dfa.to_nfa dfa in
    let good =
      List.fold_left
        (fun acc q ->
          (* is post ⊆ L(dfa started at q)? *)
          let from_q = Nfa.induce_from_start as_nfa q in
          if Dfa.subset post_dfa (Dfa.of_nfa from_q) then IS.add q acc else acc)
        IS.empty
        (List.init (Dfa.num_states dfa) Fun.id)
    in
    universal_subset_machine dfa t0 good
  end

(* The maximalization loop re-poses the same (pre, post, upper)
   residual once per occurrence per iteration, and the solver's
   preprocessing and the analyzer's bounds pass pose it again for every
   alternative sharing a constant run — cache the whole construction on
   the operand handles' ids. Under [--no-cache] the memo calls its
   function directly. *)
let max_middle_memo : Store.handle Store.Memo.t =
  Store.Memo.create ~op:"residual.max_middle"

let max_middle ~pre ~post ~upper =
  Store.Memo.find_or_compute max_middle_memo
    ~key:[ Store.id pre; Store.id post; Store.id upper ]
    (fun () ->
      if Store.is_empty pre || Store.is_empty post then Store.top ()
      else
        Store.intern
          (max_middle_uncached ~pre:(Store.nfa pre) ~post:(Store.nfa post)
             ~upper:(Store.nfa upper)))

let leaf_handle system a = function
  | System.Const c -> System.const_handle system c
  | System.Var v -> Assignment.find a v
  | System.Concat _ | System.Union _ -> assert false

(* Bounds from one union-free alternative of the left-hand side: for
   each occurrence of [v], the concatenation of the leaf languages
   before and after it under the current assignment. *)
let alternative_bounds system a v upper alternative =
  let arr = Array.of_list (System.leaves alternative) in
  let n = Array.length arr in
  let side lo hi =
    let rec build j h =
      if j > hi then h
      else build (j + 1) (Store.concat_lang h (leaf_handle system a arr.(j)))
    in
    build lo (Store.of_word "")
  in
  let rec collect i acc =
    if i >= n then acc
    else if arr.(i) = System.Var v then
      let pre = side 0 (i - 1) and post = side (i + 1) (n - 1) in
      collect (i + 1) (max_middle ~pre ~post ~upper :: acc)
    else collect (i + 1) acc
  in
  collect 0 []

(* Every union-free alternative of [e ⊆ c] is a conjunct, so each
   alternative containing [v] contributes its bounds. *)
let occurrence_bounds system a v { System.lhs; rhs } =
  let upper = System.const_handle system rhs in
  List.concat_map
    (alternative_bounds system a v upper)
    (System.expand_unions lhs)

let maximize_var system a v =
  match
    List.concat_map (occurrence_bounds system a v) (System.constraints system)
  with
  | [] -> Assignment.find a v (* unconstrained: leave as-is *)
  | first :: rest -> List.fold_left Store.inter_lang first rest

let maximize system a =
  let vars = Assignment.variables a in
  let rec loop a iterations =
    let a', grew =
      List.fold_left
        (fun (a, grew) v ->
          let current = Assignment.find a v in
          let bigger = maximize_var system a v in
          if Store.subset bigger current then (a, grew)
          else begin
            let candidate =
              Assignment.of_list
                ((v, Store.union_lang current bigger)
                :: List.remove_assoc v (Assignment.bindings a))
            in
            (* When [v] occurs more than once in a constraint, the
               occurrence bounds were computed against the old value
               of the other occurrences; re-check before accepting. *)
            if Validate.satisfying system candidate then (candidate, true) else (a, grew)
          end)
        (a, false) vars
    in
    (* the lattice of possible values is finite, but guard anyway *)
    if grew && iterations < 16 then loop a' (iterations + 1) else a'
  in
  loop a 0
