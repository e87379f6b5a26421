module Nfa = Automata.Nfa

(* Generalized NFA: a dense matrix of regex edge labels over the
   machine's states plus a fresh source/sink pair. Eliminating state q
   rewrites every i→j label to account for paths through q:

     R[i][j] := R[i][j] | R[i][q] · R[q][q]* · R[q][j]

   We eliminate low-degree states first; on the machines the solver
   produces this keeps intermediate expressions markedly smaller than
   elimination in id order. *)

let to_regex m =
  (* Trimming first both shrinks the matrix and guarantees that a
     machine denoting ∅ collapses to the canonical empty machine. *)
  let m, _ = Nfa.trim m in
  if Nfa.is_empty_lang m then Ast.Empty
  else begin
    let n = Nfa.num_states m in
    let source = n and sink = n + 1 in
    let total = n + 2 in
    let edge = Array.make_matrix total total Ast.Empty in
    let alive = Array.make total true in
    (* live in/out degrees: edges to or from alive states, self-loops
       excluded, kept current by [add] and by each elimination so that
       choosing the next state costs O(n), not O(n²) *)
    let ins = Array.make total 0 and outs = Array.make total 0 in
    let add i j r =
      let was = edge.(i).(j) <> Ast.Empty in
      edge.(i).(j) <- Ast.alt edge.(i).(j) r;
      if i <> j && (not was) && edge.(i).(j) <> Ast.Empty then begin
        outs.(i) <- outs.(i) + 1;
        ins.(j) <- ins.(j) + 1
      end
    in
    List.iter
      (fun q ->
        List.iter (fun (cs, q') -> add q q' (Ast.chars cs)) (Nfa.char_transitions m q);
        List.iter (fun q' -> add q q' Ast.Epsilon) (Nfa.eps_transitions_from m q))
      (Nfa.states m);
    add source (Nfa.start m) Ast.Epsilon;
    add (Nfa.final m) sink Ast.Epsilon;
    for _ = 1 to n do
      (* pick the cheapest remaining internal state: least ins·outs,
         ties to the lowest id *)
      let best = ref (-1) and best_cost = ref 0 in
      for q = 0 to n - 1 do
        if alive.(q) then begin
          let cost = ins.(q) * outs.(q) in
          if !best < 0 || cost < !best_cost then begin
            best := q;
            best_cost := cost
          end
        end
      done;
      let q = !best in
      alive.(q) <- false;
      for i = 0 to total - 1 do
        if alive.(i) then begin
          if edge.(i).(q) <> Ast.Empty then outs.(i) <- outs.(i) - 1;
          if edge.(q).(i) <> Ast.Empty then ins.(i) <- ins.(i) - 1
        end
      done;
      let loop = Ast.star edge.(q).(q) in
      for i = 0 to total - 1 do
        if alive.(i) && edge.(i).(q) <> Ast.Empty then
          for j = 0 to total - 1 do
            if alive.(j) && edge.(q).(j) <> Ast.Empty then
              add i j (Ast.seq edge.(i).(q) (Ast.seq loop edge.(q).(j)))
          done
      done
    done;
    edge.(source).(sink)
  end

let to_string m = Ast.to_string (to_regex m)
