(* [Automata.Dfa.minimize] as first written, Moore partition
   refinement, and Brzozowski's double reversal. Moore is the oracle
   the Hopcroft kernel is checked against state for state: the same
   class numbering (by least member state), the same finals, the same
   per-state edge lists in order. Brzozowski shares no refinement code
   with either and is the language cross-check.

   [Dfa.t] is abstract, so the oracles work on a plain [machine]
   record; [of_dfa] reads a real machine into the same shape. *)

module Dfa = Automata.Dfa
module Nfa = Automata.Nfa

type machine = {
  n : int;
  start : int;
  finals : bool array;
  trans : (Charset.t * int) list array;
}

let of_dfa d =
  let n = Dfa.num_states d in
  {
    n;
    start = Dfa.start d;
    finals = Array.init n (Dfa.is_final d);
    trans = Array.init n (Dfa.transitions d);
  }

let to_dfa m =
  let b = Nfa.Builder.create () in
  let _ = Nfa.Builder.add_states b m.n in
  let final = Nfa.Builder.add_state b in
  Array.iteri
    (fun q out ->
      List.iter (fun (cs, q') -> Nfa.Builder.add_trans b q cs q') out;
      if m.finals.(q) then Nfa.Builder.add_eps b q final)
    m.trans;
  Dfa.of_nfa (Nfa.Builder.finish b ~start:m.start ~final)

let step m q c =
  List.find_map
    (fun (cs, q') -> if Charset.mem c cs then Some q' else None)
    m.trans.(q)

let merge_edges edges =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (cs, q) ->
      let existing = Option.value (Hashtbl.find_opt tbl q) ~default:Charset.empty in
      Hashtbl.replace tbl q (Charset.union existing cs))
    edges;
  Hashtbl.fold (fun q cs acc -> (cs, q) :: acc) tbl []

let complete d =
  let sink = d.n in
  let trans = Array.make (d.n + 1) [] in
  Array.iteri
    (fun q out ->
      let covered = List.fold_left (fun acc (cs, _) -> Charset.union acc cs) Charset.empty out in
      let missing = Charset.complement covered in
      trans.(q) <- (if Charset.is_empty missing then out else (missing, sink) :: out))
    d.trans;
  trans.(sink) <- [ (Charset.full, sink) ];
  let finals = Array.make (d.n + 1) false in
  Array.blit d.finals 0 finals 0 d.n;
  { n = d.n + 1; start = d.start; finals; trans }

let trim d =
  let fwd = Array.make d.n false in
  let rec visit q =
    if not fwd.(q) then begin
      fwd.(q) <- true;
      List.iter (fun (_, q') -> visit q') d.trans.(q)
    end
  in
  visit d.start;
  let preds = Array.make d.n [] in
  Array.iteri
    (fun q out -> List.iter (fun (_, q') -> preds.(q') <- q :: preds.(q')) out)
    d.trans;
  let bwd = Array.make d.n false in
  let rec visit_back q =
    if not bwd.(q) then begin
      bwd.(q) <- true;
      List.iter visit_back preds.(q)
    end
  in
  Array.iteri (fun q is_f -> if is_f then visit_back q) d.finals;
  let live q = fwd.(q) && bwd.(q) in
  if not (live d.start) then
    { n = 1; start = 0; finals = [| false |]; trans = [| [] |] }
  else begin
    let rename = Array.make d.n (-1) in
    let count = ref 0 in
    for q = 0 to d.n - 1 do
      if live q then begin
        rename.(q) <- !count;
        incr count
      end
    done;
    let trans = Array.make !count [] in
    let finals = Array.make !count false in
    for q = 0 to d.n - 1 do
      if live q then begin
        trans.(rename.(q)) <-
          List.filter_map
            (fun (cs, q') -> if live q' then Some (cs, rename.(q')) else None)
            d.trans.(q);
        finals.(rename.(q)) <- d.finals.(q)
      end
    done;
    { n = !count; start = rename.(d.start); finals; trans }
  end

(* Moore refinement: each round renumbers the states by the signature
   (own class, successor class per alphabet block), classes numbered
   in order of first occurrence, until the class count is stable. *)
let moore d0 =
  let d = complete (trim (of_dfa d0)) in
  let blocks = ref [] in
  Array.iter
    (fun out -> List.iter (fun (cs, _) -> blocks := cs :: !blocks) out)
    d.trans;
  let alphabet = Charset.refine !blocks in
  let reps = List.map Charset.choose alphabet in
  let total_step q c = Option.get (step d q c) in
  let r = List.length reps in
  let tbl = Array.make (max 1 (d.n * r)) 0 in
  List.iteri
    (fun i c ->
      for q = 0 to d.n - 1 do
        tbl.((q * r) + i) <- total_step q c
      done)
    reps;
  let cls = Array.make d.n 0 in
  Array.iteri (fun q is_f -> cls.(q) <- (if is_f then 1 else 0)) d.finals;
  (* signatures hashed over the full successor row and verified
     against [tbl]: the polymorphic hash samples only a prefix of an
     array, and on chain-shaped machines most states agree on it *)
  let same_signature p q =
    cls.(p) = cls.(q)
    &&
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < r do
      if cls.(tbl.((p * r) + !i)) <> cls.(tbl.((q * r) + !i)) then ok := false;
      incr i
    done;
    !ok
  in
  let changed = ref true in
  let num_classes = ref 2 in
  while !changed do
    changed := false;
    let buckets : (int, (int * int) list) Hashtbl.t = Hashtbl.create d.n in
    let next = Array.make d.n 0 in
    let fresh = ref 0 in
    for q = 0 to d.n - 1 do
      let h = ref cls.(q) in
      for i = 0 to r - 1 do
        h := (!h * 31) + cls.(tbl.((q * r) + i))
      done;
      let key = !h land max_int in
      let candidates = Option.value (Hashtbl.find_opt buckets key) ~default:[] in
      let id =
        match List.find_opt (fun (p, _) -> same_signature p q) candidates with
        | Some (_, id) -> id
        | None ->
            let id = !fresh in
            incr fresh;
            Hashtbl.replace buckets key ((q, id) :: candidates);
            id
      in
      next.(q) <- id
    done;
    if !fresh <> !num_classes then begin
      changed := true;
      num_classes := !fresh
    end;
    Array.blit next 0 cls 0 d.n
  done;
  let k = !num_classes in
  let trans = Array.make k [] in
  let finals = Array.make k false in
  let seen = Array.make k false in
  for q = 0 to d.n - 1 do
    let c = cls.(q) in
    if not seen.(c) then begin
      seen.(c) <- true;
      finals.(c) <- d.finals.(q);
      trans.(c) <-
        merge_edges
          (List.map
             (fun block -> (block, cls.(total_step q (Charset.choose block))))
             alphabet)
    end
  done;
  trim { n = k; start = cls.(d.start); finals; trans }

(* Determinization of the reversed machine, on machine states
   (predecessor subset construction). The input's determinism makes
   the reversal co-deterministic, the hypothesis Brzozowski's theorem
   needs. *)
let reverse_det d =
  let d = trim d in
  let labels = ref [] in
  Array.iter (fun out -> List.iter (fun (cs, _) -> labels := cs :: !labels) out) d.trans;
  let alphabet = Charset.refine !labels in
  let module IS = Set.Make (Int) in
  let start_set =
    IS.of_list (List.filter (fun q -> d.finals.(q)) (List.init d.n Fun.id))
  in
  let table = Hashtbl.create 64 in
  let worklist = Queue.create () in
  let count = ref 0 in
  let finals = ref [] in
  let materialize set =
    let k = IS.elements set in
    match Hashtbl.find_opt table k with
    | Some q -> q
    | None ->
        let q = !count in
        incr count;
        Hashtbl.add table k q;
        if IS.mem d.start set then finals := q :: !finals;
        Queue.add (set, q) worklist;
        q
  in
  let start_q = materialize start_set in
  let edges = ref [] in
  while not (Queue.is_empty worklist) do
    let set, src = Queue.take worklist in
    let out =
      List.filter_map
        (fun block ->
          let c = Charset.choose block in
          let preds =
            List.fold_left
              (fun acc q ->
                match step d q c with
                | Some q' when IS.mem q' set -> IS.add q acc
                | _ -> acc)
              IS.empty (List.init d.n Fun.id)
          in
          if IS.is_empty preds then None else Some (block, materialize preds))
        alphabet
    in
    edges := (src, merge_edges out) :: !edges
  done;
  let trans = Array.make !count [] in
  List.iter (fun (src, out) -> trans.(src) <- out) !edges;
  let finals_arr = Array.make !count false in
  List.iter (fun q -> finals_arr.(q) <- true) !finals;
  trim { n = !count; start = start_q; finals = finals_arr; trans }

let brzozowski d = reverse_det (reverse_det (of_dfa d))
