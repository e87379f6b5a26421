(* The automata kernels as first written, kept as oracles for the
   faster ones in [lib/automata]: graph searches over persistent
   [StateSet] frontiers, DFA deciders on completed machines, language
   equality and inclusion by determinizing both operands, and the
   quadratic [repeat]. Each answers the same question as the kernel
   it checks by a different route; none is fast. Everything here reads
   the machines through their public accessors. *)

module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Ops = Automata.Ops
module SS = Nfa.StateSet

(* ------------------------------------------------------------------ *)
(* Graph searches, the originals of [Nfa]'s dense BFS family *)

(* Least fixpoint from [seed], one frontier of new states at a time. *)
let saturate succ seed =
  let rec go frontier acc =
    if SS.is_empty frontier then acc
    else
      let next =
        SS.fold
          (fun q next ->
            List.fold_left
              (fun next q' -> if SS.mem q' acc then next else SS.add q' next)
              next (succ q))
          frontier SS.empty
      in
      go next (SS.union acc next)
  in
  go seed seed

let eps_closure m set = saturate (Nfa.eps_transitions_from m) set

let successors m q =
  List.map snd (Nfa.char_transitions m q) @ Nfa.eps_transitions_from m q

let reachable_from m q0 = saturate (successors m) (SS.singleton q0)

let coreachable_to m q0 =
  let preds = Array.make (Nfa.num_states m) [] in
  List.iter
    (fun q -> List.iter (fun q' -> preds.(q') <- q :: preds.(q')) (successors m q))
    (Nfa.states m);
  saturate (Array.get preds) (SS.singleton q0)

let is_empty_lang m = not (SS.mem (Nfa.final m) (reachable_from m (Nfa.start m)))

(* ------------------------------------------------------------------ *)
(* DFA deciders *)

let word_of_rev chars = String.of_seq (List.to_seq (List.rev chars))

let dfa_accepts d w =
  let rec go q i =
    if i = String.length w then Dfa.is_final d q
    else match Dfa.step d q w.[i] with None -> false | Some q' -> go q' (i + 1)
  in
  go (Dfa.start d) 0

(* No final state is reachable from the start. *)
let dfa_is_empty d =
  let seen = Array.make (Dfa.num_states d) false in
  let rec live q =
    (not seen.(q))
    && begin
         seen.(q) <- true;
         Dfa.is_final d q || List.exists (fun (_, q') -> live q') (Dfa.transitions d q)
       end
  in
  not (live (Dfa.start d))

(* Breadth-first search over the product of [a] with the completion of
   [b], for a pair accepting in [a] but not in [b]: a shortest word of
   [L(a) \ L(b)]. *)
let dfa_counterexample a b =
  let b = Dfa.complete b in
  let visited = Hashtbl.create 64 in
  let worklist = Queue.create () in
  let visit pair word =
    if not (Hashtbl.mem visited pair) then begin
      Hashtbl.add visited pair ();
      Queue.add (pair, word) worklist
    end
  in
  visit (Dfa.start a, Dfa.start b) [];
  let rec search () =
    match Queue.take_opt worklist with
    | None -> None
    | Some ((p, q), word) ->
        if Dfa.is_final a p && not (Dfa.is_final b q) then Some (word_of_rev word)
        else begin
          List.iter
            (fun (cs1, p') ->
              List.iter
                (fun (cs2, q') ->
                  let label = Charset.inter cs1 cs2 in
                  if not (Charset.is_empty label) then
                    visit (p', q') (Charset.choose label :: word))
                (Dfa.transitions b q))
            (Dfa.transitions a p);
          search ()
        end
  in
  search ()

let dfa_subset a b = Option.is_none (dfa_counterexample a b)

(* Pairwise bisimulation of the two completed machines: every pair
   reached by one word agrees on acceptance. *)
let dfa_equiv d1 d2 =
  let d1 = Dfa.complete d1 and d2 = Dfa.complete d2 in
  let visited = Hashtbl.create 64 in
  let worklist = Queue.create () in
  let visit pair =
    if not (Hashtbl.mem visited pair) then begin
      Hashtbl.add visited pair ();
      Queue.add pair worklist
    end
  in
  visit (Dfa.start d1, Dfa.start d2);
  let rec search () =
    match Queue.take_opt worklist with
    | None -> true
    | Some (p, q) ->
        Dfa.is_final d1 p = Dfa.is_final d2 q
        && begin
             let labels =
               List.map fst (Dfa.transitions d1 p) @ List.map fst (Dfa.transitions d2 q)
             in
             List.iter
               (fun block ->
                 let c = Charset.choose block in
                 match (Dfa.step d1 p c, Dfa.step d2 q c) with
                 | Some p', Some q' -> visit (p', q')
                 | _ -> assert false (* both machines are complete *))
               (Charset.refine labels);
             search ()
           end
  in
  search ()

(* ------------------------------------------------------------------ *)
(* Language equality and inclusion by determinizing both operands, the
   procedure [Lang.counterexample]'s on-the-fly search replaced *)

let equal a b = dfa_equiv (Dfa.of_nfa a) (Dfa.of_nfa b)

let subset a b = dfa_subset (Dfa.of_nfa a) (Dfa.of_nfa b)

(* ------------------------------------------------------------------ *)
(* [L(m){min,max}] by re-embedding the accumulated prefix per copy:
   O(k²·|m|) states where [Ops.repeat] builds Θ(k·|m|). *)

let repeat m ~min_count ~max_count =
  let rec copies k =
    if k = 0 then Nfa.epsilon_lang else Ops.concat_lang m (copies (k - 1))
  in
  match max_count with
  | None -> Ops.concat_lang (copies min_count) (Ops.star m)
  | Some mx ->
      (* mandatory prefix followed by (max-min) optional copies *)
      let rec optionals k =
        if k = 0 then Nfa.epsilon_lang
        else Ops.opt (Ops.concat_lang m (optionals (k - 1)))
      in
      Ops.concat_lang (copies min_count) (optionals (mx - min_count))
