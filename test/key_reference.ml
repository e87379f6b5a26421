(* The store's canonical key as first written: two closure-compare
   [List.sort]s per state, [Charset.ranges] lists and [string_of_int]
   for every number, labels ordered by the polymorphic [compare] of
   their ranges. Kept as the oracle the faster
   [Automata.Store.canonical_key] is checked against: both must relate
   exactly the same machines (here they write the same bytes).

   Serialization of the trimmed machine under a deterministic BFS
   renumbering: BFS from the start state, expanding each state's char
   edges ordered by (label, old destination id) and then its ε-edges
   ordered by old destination id; leftover states are appended in
   old-id order. *)

module Nfa = Automata.Nfa

let canonical_key m0 =
  (* trimming keeps the live states' relative order, so it leaves a
     trim machine as it is *)
  let m = fst (Nfa.trim m0) in
  let n = Nfa.num_states m in
  let order = Array.make (max n 1) (-1) in
  let next = ref 0 in
  let queue = Queue.create () in
  let enqueue q =
    if order.(q) < 0 then begin
      order.(q) <- !next;
      incr next;
      Queue.add q queue
    end
  in
  enqueue (Nfa.start m);
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    let chars =
      List.sort
        (fun (c1, d1) (c2, d2) ->
          let c = compare (Charset.ranges c1) (Charset.ranges c2) in
          if c <> 0 then c else compare (d1 : int) d2)
        (Nfa.char_transitions m q)
    in
    List.iter (fun (_, d) -> enqueue d) chars;
    List.iter enqueue (List.sort compare (Nfa.eps_transitions_from m q))
  done;
  for q = 0 to n - 1 do
    if order.(q) < 0 then begin
      order.(q) <- !next;
      incr next
    end
  done;
  let inv = Array.make (max n 1) 0 in
  for q = 0 to n - 1 do
    inv.(order.(q)) <- q
  done;
  let buf = Buffer.create 1024 in
  let add_int i = Buffer.add_string buf (string_of_int i) in
  add_int n;
  Buffer.add_char buf '#';
  add_int order.(Nfa.start m);
  Buffer.add_char buf '#';
  add_int order.(Nfa.final m);
  for i = 0 to n - 1 do
    let q = inv.(i) in
    Buffer.add_char buf '|';
    let chars =
      List.sort
        (fun (c1, d1) (c2, d2) ->
          let c = compare (Charset.ranges c1) (Charset.ranges c2) in
          if c <> 0 then c else compare (d1 : int) d2)
        (List.map (fun (cs, d) -> (cs, order.(d))) (Nfa.char_transitions m q))
    in
    List.iter
      (fun (cs, d) ->
        List.iter
          (fun (lo, hi) ->
            add_int lo;
            Buffer.add_char buf '-';
            add_int hi;
            Buffer.add_char buf ',')
          (Charset.ranges cs);
        Buffer.add_char buf '>';
        add_int d;
        Buffer.add_char buf ';')
      chars;
    Buffer.add_char buf '!';
    List.iter
      (fun d ->
        add_int d;
        Buffer.add_char buf ',')
      (List.sort compare
         (List.map (fun d -> order.(d)) (Nfa.eps_transitions_from m q)))
  done;
  Buffer.contents buf
