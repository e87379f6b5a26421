module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Ops = Automata.Ops
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
  if Nfa.is_empty_lang pre || Nfa.is_empty_lang post then Nfa.sigma_star
  else begin
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
  end

(* The maximalization loop re-poses the same (pre, post, upper)
   residual once per occurrence per iteration, and the solver's
   preprocessing poses it again for every alternative sharing a
   constant run — cache the whole construction on the interned
   operand triple. Under [--no-cache] interning and [Store.canon] pass
   machines through and the memo calls its function directly. *)
let max_middle_memo : Nfa.t Store.Memo.t =
  Store.Memo.create ~op:"residual.max_middle"

let max_middle ~pre ~post ~upper =
  let hp = Store.intern pre and hq = Store.intern post and hu = Store.intern upper in
  Store.Memo.find_or_compute max_middle_memo
    ~key:[ Store.id hp; Store.id hq; Store.id hu ]
    (fun () ->
      Store.canon
        (max_middle_uncached ~pre:(Store.nfa hp) ~post:(Store.nfa hq)
           ~upper:(Store.nfa hu)))

(* Constants resolve to the system's shared handles; assignment
   values are interned on the spot (cheap relative to the residual
   they feed, and identical values across occurrences collapse). *)
let leaf_handle system a = function
  | System.Const c -> System.const_handle system c
  | System.Var v -> Store.intern (Assignment.find a v)
  | System.Concat _ | System.Union _ -> assert false

(* Bounds from one union-free alternative of the left-hand side: for
   each occurrence of [v], the concatenation of the leaf languages
   before and after it under the current assignment. *)
let alternative_bounds system a v upper alternative =
  let ls = System.leaves alternative in
  let arr = Array.of_list ls in
  let n = Array.length arr in
  let rec collect i acc =
    if i >= n then acc
    else if arr.(i) = System.Var v then begin
      let side lo hi =
        let rec build j m =
          if j > hi then m
          else build (j + 1) (Store.concat_lang m (leaf_handle system a arr.(j)))
        in
        build lo (Store.intern Nfa.epsilon_lang)
      in
      let pre = Store.nfa (side 0 (i - 1)) in
      let post = Store.nfa (side (i + 1) (n - 1)) in
      collect (i + 1) (max_middle ~pre ~post ~upper :: acc)
    end
    else collect (i + 1) acc
  in
  collect 0 []

(* Every union-free alternative of [e ⊆ c] is a conjunct, so each
   alternative containing [v] contributes its bounds. *)
let occurrence_bounds system a v { System.lhs; rhs } =
  let upper = System.const_lang system rhs in
  List.concat_map
    (alternative_bounds system a v upper)
    (System.expand_unions lhs)

let maximize_var system a v =
  let bounds =
    List.concat_map (occurrence_bounds system a v) (System.constraints system)
  in
  match bounds with
  | [] -> Assignment.find a v (* unconstrained: leave as-is *)
  | first :: rest ->
      Store.minimized
        (List.fold_left
           (fun acc b -> Store.inter_lang acc (Store.intern b))
           (Store.intern first) rest)

let maximize system a =
  let vars = Assignment.variables a in
  let rec loop a iterations =
    let a', grew =
      List.fold_left
        (fun (a, grew) v ->
          let current = Assignment.find a v in
          let bigger = maximize_var system a v in
          if Store.subset (Store.intern bigger) (Store.intern current) then
            (a, grew)
          else begin
            let candidate =
              Assignment.of_list
                ((v, Ops.union_lang current bigger)
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
  let result = loop a 0 in
  Assignment.of_list
    (List.map
       (fun (v, lang) -> (v, Store.minimized (Store.intern lang)))
       (Assignment.bindings result))
