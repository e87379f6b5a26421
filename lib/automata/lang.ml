(* Number of (LHS state × RHS subset) pairs explored per inclusion
   query. Full determinization of both operands would pay the whole
   product up front; the on-the-fly check below usually exits after a
   small prefix of it. *)
let h_subset_visited = Telemetry.Metrics.Histogram.make "automata.subset.visited"

let t_counterexample =
  Telemetry.Metrics.Timer.make "automata.lang.counterexample"

let t_subset = Telemetry.Metrics.Timer.make "automata.lang.subset"
let t_equal = Telemetry.Metrics.Timer.make "automata.lang.equal"

module SS = Nfa.StateSet

(* --------------------------------------------------------------- *)
(* Reference implementations: determinize both operands, then decide
   on the DFAs. Retained as the oracle for the randomized cross-check
   suite; the solver's hot paths use the on-the-fly versions below. *)

let equal_reference a b = Dfa.equiv (Dfa.of_nfa a) (Dfa.of_nfa b)

let subset_reference a b = Dfa.subset (Dfa.of_nfa a) (Dfa.of_nfa b)

(* --------------------------------------------------------------- *)
(* On-the-fly inclusion (after Keil & Thiemann's symbolic solving of
   regular inequalities): search the product of [a]'s states against
   determinized-on-demand subsets of [b]'s states. A pair (p, S)
   reached by word w means p ∈ δa(start, w) and S is the ε-closed
   δb(start, w); w is a counterexample iff p is final in [a] while S
   misses [b]'s final state — including the S = ∅ sink, which rejects
   every extension. ε-moves of [a] advance p without touching S;
   character moves are taken per minterm ("next literal") of the
   labels leaving p and S, so each distinct successor subset is
   computed once per class, not per character. The search stops at
   the first counterexample instead of materializing either
   determinization. *)

let counterexample_untimed a b =
  let visited : (int * int list, unit) Hashtbl.t = Hashtbl.create 64 in
  let worklist = Queue.create () in
  let count = ref 0 in
  let push p s word =
    let key = (p, SS.elements s) in
    if not (Hashtbl.mem visited key) then begin
      (* Each visited (state × subset) pair is a state of the lazy
         product: charge it against the ambient budget's state cap. *)
      Budget.charge_states 1;
      Hashtbl.add visited key ();
      incr count;
      Queue.add (p, s, word) worklist
    end
  in
  let s0 = Nfa.eps_closure b (SS.singleton (Nfa.start b)) in
  push (Nfa.start a) s0 [];
  let final_a = Nfa.final a and final_b = Nfa.final b in
  let result = ref None in
  (try
     while not (Queue.is_empty worklist) do
       let p, s, word = Queue.take worklist in
       if p = final_a && not (SS.mem final_b s) then begin
         result := Some (List.rev word);
         raise Exit
       end;
       List.iter (fun p' -> push p' s word) (Nfa.eps_transitions_from a p);
       let lhs_trans = Nfa.char_transitions a p in
       if lhs_trans <> [] then begin
         let rhs_labels =
           SS.fold
             (fun q acc ->
               List.fold_left
                 (fun acc (cs, _) -> cs :: acc)
                 acc (Nfa.char_transitions b q))
             s []
         in
         let blocks = Charset.refine (List.map fst lhs_trans @ rhs_labels) in
         (* One RHS step per minterm block, shared by every LHS
            transition whose label covers the block. *)
         let moves =
           List.map
             (fun block ->
               let c = Charset.choose block in
               (c, lazy (Nfa.step b s c)))
             blocks
         in
         List.iter
           (fun (cs, p') ->
             List.iter
               (fun (c, s') ->
                 if Charset.mem c cs then push p' (Lazy.force s') (c :: word))
               moves)
           lhs_trans
       end
     done
   with Exit -> ());
  Telemetry.Metrics.Histogram.observe h_subset_visited (float_of_int !count);
  Option.map (fun chars -> String.init (List.length chars) (List.nth chars)) !result

let counterexample a b =
  Telemetry.Metrics.Timer.time t_counterexample (fun () ->
      counterexample_untimed a b)

let subset a b =
  Telemetry.Metrics.Timer.time t_subset (fun () ->
      Option.is_none (counterexample a b))

let equal a b =
  Telemetry.Metrics.Timer.time t_equal (fun () -> subset a b && subset b a)

let is_empty a = Nfa.is_empty_lang a

let difference a b =
  Dfa.to_nfa (Dfa.inter (Dfa.of_nfa a) (Dfa.complement (Dfa.of_nfa b)))

let compact a =
  let trimmed, _ = Nfa.trim a in
  let minimized = Dfa.to_nfa (Dfa.minimize (Dfa.of_nfa trimmed)) in
  if Nfa.num_states minimized < Nfa.num_states trimmed then minimized else trimmed
