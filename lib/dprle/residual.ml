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

(* The states [q] of the complete DFA [dfa] with [L(post) ⊆ L(dfa
   from q)], all at once: one product of [post] with [dfa], explored
   from every seed [(post start, q)], then one backward sweep from the
   pairs where [post] accepts and [dfa] rejects. [q] is good exactly
   when the sweep does not reach its seed. *)
let good_states (dfa : Dfa.t) (post : Dfa.t) =
  let n = Dfa.num_states dfa in
  let pair p d = (p * n) + d in
  let seen = Hashtbl.create 64 in
  let preds = Hashtbl.create 64 in
  let frontier = Stack.create () in
  let bad = Queue.create () in
  let visit p d =
    let k = pair p d in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      if Dfa.is_final post p && not (Dfa.is_final dfa d) then Queue.add k bad;
      Stack.push (p, d) frontier
    end
  in
  let p0 = Dfa.start post in
  for q = 0 to n - 1 do
    visit p0 q
  done;
  while not (Stack.is_empty frontier) do
    let p, d = Stack.pop frontier in
    List.iter
      (fun (cs, p') ->
        List.iter
          (fun (cs', d') ->
            if Charset.intersects cs cs' then begin
              Hashtbl.add preds (pair p' d') (pair p d);
              visit p' d'
            end)
          (Dfa.transitions dfa d))
      (Dfa.transitions post p)
  done;
  let doomed = Hashtbl.create 16 in
  Queue.iter (fun k -> Hashtbl.replace doomed k ()) bad;
  while not (Queue.is_empty bad) do
    List.iter
      (fun k ->
        if not (Hashtbl.mem doomed k) then begin
          Hashtbl.replace doomed k ();
          Queue.add k bad
        end)
      (Hashtbl.find_all preds (Queue.take bad))
  done;
  let good = ref IS.empty in
  for q = n - 1 downto 0 do
    if not (Hashtbl.mem doomed (pair p0 q)) then good := IS.add q !good
  done;
  !good

(* [dfa] is the completed minimal DFA of the upper bound, so each
   state is one residual [{w | u·w ∈ upper}] and the subset machine
   tracks the fewest states that tell words apart. [pre] is [`Word w]
   when its language is the single word [w]: its one state is a walk
   over [w]'s characters, not a product search over a chain machine as
   long as the word. *)
let max_middle_uncached ~pre ~post dfa =
  let t0 =
    match pre with
    | `Word w -> IS.singleton (Option.get (Dfa.walk dfa (Dfa.start dfa) w))
    | `Lang pre -> reach_set dfa pre
  in
  if IS.is_empty t0 then Nfa.sigma_star
  else universal_subset_machine dfa t0 (good_states dfa (Dfa.of_nfa post))

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
        let pre =
          match Store.word pre with
          | Some w -> `Word w
          | None -> `Lang (Store.nfa pre)
        in
        Store.intern
          (max_middle_uncached ~pre ~post:(Store.nfa post)
             (Dfa.complete (Store.min_dfa upper))))

(* The language of a run of leaf handles, built one way wherever a
   [pre·v·post ⊆ C] side is posed: no leaves is ε, one leaf is its own
   handle, literals alone join into one word (which [max_middle] walks),
   and anything else folds [concat_lang] from the first leaf. *)
let run = function
  | [] -> Store.of_word ""
  | [ h ] -> h
  | first :: rest as leaves ->
      if List.for_all (fun h -> Option.is_some (Store.word h)) leaves then
        Store.of_word (String.concat "" (List.filter_map Store.word leaves))
      else List.fold_left Store.concat_lang first rest

let bound ~pre ~post ~upper =
  match (pre, post) with
  | [], [] -> upper
  | _ -> max_middle ~pre:(run pre) ~post:(run post) ~upper

let c_growth = Telemetry.Metrics.Counter.make "solver.maximize.growth"

let leaf_handle system a = function
  | System.Const c -> System.const_handle system c
  | System.Var v -> Assignment.find a v
  | System.Concat _ | System.Union _ -> assert false

(* The occurrences of one variable in one union-free alternative of a
   constraint: the constraint's bounding constant, the alternative's
   leaves, and the variable's positions among them, ascending. *)
type occurrences = {
  upper : Store.handle;
  leaves : System.expr array;
  positions : int list;
}

type index = {
  system : System.t;
  by_var : (string, occurrences list) Hashtbl.t;
  occurrence_count : int;
}

(* One pass over the system: every union-free alternative of [e ⊆ c]
   is a conjunct, so each alternative holding a variable lists under
   it, in constraint and alternative order. *)
let index system =
  let by_var = Hashtbl.create 16 in
  let occurrence_count = ref 0 in
  List.iter
    (fun { System.lhs; rhs } ->
      let upper = System.const_handle system rhs in
      List.iter
        (fun alternative ->
          let leaves = Array.of_list (System.leaves alternative) in
          (* right to left, so each alternative's positions come out
             ascending *)
          for i = Array.length leaves - 1 downto 0 do
            match leaves.(i) with
            | System.Var v ->
                incr occurrence_count;
                Hashtbl.replace by_var v
                  (match Hashtbl.find_opt by_var v with
                  | Some (occ :: rest) when occ.leaves == leaves ->
                      { occ with positions = i :: occ.positions } :: rest
                  | occs ->
                      { upper; leaves; positions = [ i ] }
                      :: Option.value occs ~default:[])
            | System.Const _ | System.Concat _ | System.Union _ -> ()
          done)
        (System.expand_unions lhs))
    (System.constraints system);
  Hashtbl.filter_map_inplace (fun _ occs -> Some (List.rev occs)) by_var;
  { system; by_var; occurrence_count = !occurrence_count }

let vars t = Hashtbl.length t.by_var

let occurrences t = t.occurrence_count

(* The leaf handles of [leaves.(lo..hi)] under the assignment [a]. *)
let leaf_handles system a leaves lo hi =
  List.init (hi - lo + 1) (fun j -> leaf_handle system a leaves.(lo + j))

(* The bound from the occurrence at [i]: the residual of the leaf
   languages before and after it under the current assignment. A bare
   occurrence keeps [max_middle]'s own answer rather than [upper]:
   [maximize] grows a variable with whatever handle its bound is, and
   that handle decides the machine printed. *)
let occurrence_bound system a { upper; leaves; _ } i =
  let side lo hi = run (leaf_handles system a leaves lo hi) in
  max_middle ~pre:(side 0 (i - 1))
    ~post:(side (i + 1) (Array.length leaves - 1))
    ~upper

(* [v] qualifies when each of its occurrences is the last leaf of its
   alternative, behind constants only: then no other variable shares a
   constraint with it, its satisfying values are closed under union,
   and their meet is its one maximal value. *)
let closed_form t =
  let constants = Assignment.of_list [] in
  let prefixed { leaves; positions; _ } =
    let last = Array.length leaves - 1 in
    positions = [ last ]
    && Array.for_all
         (function System.Const _ -> true | _ -> false)
         (Array.sub leaves 0 last)
  in
  let residual_of { upper; leaves; _ } =
    bound
      ~pre:(leaf_handles t.system constants leaves 0 (Array.length leaves - 2))
      ~post:[] ~upper
  in
  List.filter_map
    (fun v ->
      match Hashtbl.find_opt t.by_var v with
      | Some (first :: rest as occs) when List.for_all prefixed occs ->
          Some
            ( v,
              lazy
                (List.fold_left
                   (fun acc occ -> Store.inter_lang acc (residual_of occ))
                   (residual_of first) rest) )
      | _ -> None)
    (System.variables t.system)

(* The meet of [v]'s occurrence bounds. Each alternative's bounds are
   computed by ascending position and met by descending position. *)
let maximize_var t a v =
  match
    List.concat_map
      (fun occ -> List.rev_map (occurrence_bound t.system a occ) occ.positions)
      (Option.value (Hashtbl.find_opt t.by_var v) ~default:[])
  with
  | [] -> Assignment.find a v (* unconstrained: leave as-is *)
  | first :: rest -> List.fold_left Store.inter_lang first rest

let maximize t a =
  let vars = Assignment.variables a in
  let rec loop a iterations =
    let a', grew =
      List.fold_left
        (fun (a, grew) v ->
          let current = Assignment.find a v in
          let bigger = maximize_var t a v in
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
            let accepted = Validate.satisfying t.system candidate in
            Telemetry.Metrics.Counter.incr c_growth
              ~labels:[ ("outcome", if accepted then "accepted" else "rejected") ]
              1;
            if accepted then (candidate, true) else (a, grew)
          end)
        (a, false) vars
    in
    (* the lattice of possible values is finite, but guard anyway *)
    if grew && iterations < 16 then loop a' (iterations + 1) else a'
  in
  loop a 0
