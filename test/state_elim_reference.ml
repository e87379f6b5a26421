(* [Regex.State_elim.to_regex] as first written: the same GNFA state
   elimination, but every step recounts each candidate's in/out degree
   over the whole matrix (O(n²) per choice, O(n³) per machine). The
   kernel keeps those degrees live instead and must choose the same
   state at every step (least ins·outs, ties to the lowest id), so it
   must produce the identical [Ast], node for node. *)

module Ast = Regex.Ast
module Nfa = Automata.Nfa

let to_regex m =
  let m, _ = Nfa.trim m in
  if Nfa.is_empty_lang m then Ast.Empty
  else begin
    let n = Nfa.num_states m in
    let source = n and sink = n + 1 in
    let total = n + 2 in
    let edge = Array.make_matrix total total Ast.Empty in
    let add i j r = edge.(i).(j) <- Ast.alt edge.(i).(j) r in
    List.iter
      (fun q ->
        List.iter (fun (cs, q') -> add q q' (Ast.chars cs)) (Nfa.char_transitions m q);
        List.iter (fun q' -> add q q' Ast.Epsilon) (Nfa.eps_transitions_from m q))
      (Nfa.states m);
    add source (Nfa.start m) Ast.Epsilon;
    add (Nfa.final m) sink Ast.Epsilon;
    let alive = Array.make total true in
    let degree q =
      let ins = ref 0 and outs = ref 0 in
      for i = 0 to total - 1 do
        if alive.(i) && i <> q then begin
          if edge.(i).(q) <> Ast.Empty then incr ins;
          if edge.(q).(i) <> Ast.Empty then incr outs
        end
      done;
      !ins * !outs
    in
    for _ = 1 to n do
      let best = ref (-1) in
      for q = 0 to n - 1 do
        if alive.(q) && (!best < 0 || degree q < degree !best) then best := q
      done;
      let q = !best in
      alive.(q) <- false;
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
