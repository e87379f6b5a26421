type state = int

type t = {
  n : int;
  start : state;
  finals : bool array;
  trans : (Charset.t * state) list array; (* labels disjoint per state *)
}

let num_states d = d.n
let start d = d.start
let is_final d q = d.finals.(q)
let transitions d q = d.trans.(q)

let step d q c =
  List.find_map
    (fun (cs, q') -> if Charset.mem c cs then Some q' else None)
    d.trans.(q)

let accepts d w =
  let rec go q i =
    if i = String.length w then d.finals.(q)
    else match step d q w.[i] with None -> false | Some q' -> go q' (i + 1)
  in
  go d.start 0

(* Each visited state's edges are resolved once into a 256-entry row,
   so a long word costs one array read per character instead of a
   label scan through [step]. *)
let walk d q w =
  let rows = Array.make d.n [||] in
  let row q =
    let r = rows.(q) in
    if Array.length r > 0 then r
    else begin
      let r = Array.make 256 (-1) in
      List.iter
        (fun (cs, q') ->
          List.iter
            (fun (lo, hi) -> Array.fill r lo (hi - lo + 1) q')
            (Charset.ranges cs))
        d.trans.(q);
      rows.(q) <- r;
      r
    end
  in
  let rec go q i =
    if i = String.length w then Some q
    else
      let q' = (row q).(Char.code w.[i]) in
      if q' < 0 then None else go q' (i + 1)
  in
  go q 0

(* Merge edges sharing a target into one charset-labelled edge. *)
let merge_edges edges =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (cs, q) ->
      Hashtbl.replace tbl q
        (cs :: Option.value (Hashtbl.find_opt tbl q) ~default:[]))
    edges;
  (* one normalization per target: a union per edge re-sorted the
     growing label every time *)
  Hashtbl.fold
    (fun q labels acc ->
      let cs =
        match labels with
        | [ cs ] -> cs
        | labels -> Charset.of_ranges (List.concat_map Charset.ranges labels)
      in
      (cs, q) :: acc)
    tbl []

let t_determinize = Telemetry.Metrics.Timer.make "automata.dfa.determinize"
let t_minimize = Telemetry.Metrics.Timer.make "automata.dfa.minimize"

let of_nfa_untimed (m : Nfa.t) =
  let module SS = Nfa.StateSet in
  let key set = SS.elements set in
  let table : (Nfa.state list, state) Hashtbl.t = Hashtbl.create 64 in
  let finals = ref [] in
  let edges = ref [] in
  let count = ref 0 in
  let worklist = Queue.create () in
  let materialize set =
    let k = key set in
    match Hashtbl.find_opt table k with
    | Some q -> q
    | None ->
        Budget.charge_states 1;
        let q = !count in
        incr count;
        Hashtbl.add table k q;
        if SS.mem (Nfa.final m) set then finals := q :: !finals;
        Queue.add (set, q) worklist;
        q
  in
  let initial = Nfa.eps_closure m (SS.singleton (Nfa.start m)) in
  let start_q = materialize initial in
  while not (Queue.is_empty worklist) do
    let set, src = Queue.take worklist in
    let labels =
      SS.fold (fun s acc -> List.map fst (Nfa.char_transitions m s) @ acc) set []
    in
    let blocks = Charset.refine labels in
    let out =
      List.filter_map
        (fun block ->
          let c = Charset.choose block in
          let dst_set = Nfa.step m set c in
          if SS.is_empty dst_set then None else Some (block, materialize dst_set))
        blocks
    in
    edges := (src, merge_edges out) :: !edges
  done;
  let trans = Array.make !count [] in
  List.iter (fun (src, out) -> trans.(src) <- out) !edges;
  let finals_arr = Array.make !count false in
  List.iter (fun q -> finals_arr.(q) <- true) !finals;
  { n = !count; start = start_q; finals = finals_arr; trans }

let of_nfa m = Telemetry.Metrics.Timer.time t_determinize (fun () -> of_nfa_untimed m)

let of_word w =
  let n = String.length w + 1 in
  {
    n;
    start = 0;
    finals = Array.init n (fun q -> q = n - 1);
    trans =
      Array.init n (fun q ->
          if q < n - 1 then [ (Charset.singleton w.[q], q + 1) ] else []);
  }

let to_nfa d =
  let b = Nfa.Builder.create () in
  let _ = Nfa.Builder.add_states b d.n in
  let final = Nfa.Builder.add_state b in
  Array.iteri
    (fun q out ->
      List.iter (fun (cs, q') -> Nfa.Builder.add_trans b q cs q') out;
      if d.finals.(q) then Nfa.Builder.add_eps b q final)
    d.trans;
  Nfa.Builder.finish b ~start:d.start ~final

(* Totalize: add an explicit non-accepting sink with a Σ self-loop and
   route every missing label to it. *)
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

(* Keep only states reachable from the start and co-reachable to some
   final state; compact ids. An empty result is the canonical
   one-state rejecting machine. *)
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

let complement d =
  let c = complete d in
  { c with finals = Array.map not c.finals }

(* Product of two completed machines; [combine] picks the accepting
   predicate, so the same construction yields ∩ and ∪. *)
let product combine d1 d2 =
  let d1 = complete d1 and d2 = complete d2 in
  let table = Hashtbl.create 64 in
  let worklist = Queue.create () in
  let count = ref 0 in
  let cells = ref [] in
  let materialize pair =
    match Hashtbl.find_opt table pair with
    | Some q -> q
    | None ->
        let q = !count in
        incr count;
        Hashtbl.add table pair q;
        Queue.add (pair, q) worklist;
        cells := (q, pair) :: !cells;
        q
  in
  let start_q = materialize (d1.start, d2.start) in
  let edges = ref [] in
  while not (Queue.is_empty worklist) do
    let (p, q), src = Queue.take worklist in
    let out =
      List.concat_map
        (fun (cs1, p') ->
          List.filter_map
            (fun (cs2, q') ->
              let label = Charset.inter cs1 cs2 in
              if Charset.is_empty label then None
              else Some (label, materialize (p', q')))
            d2.trans.(q))
        d1.trans.(p)
    in
    edges := (src, merge_edges out) :: !edges
  done;
  let trans = Array.make !count [] in
  List.iter (fun (src, out) -> trans.(src) <- out) !edges;
  let finals = Array.make !count false in
  List.iter
    (fun (q, (p1, p2)) -> finals.(q) <- combine d1.finals.(p1) d2.finals.(p2))
    !cells;
  trim { n = !count; start = start_q; finals; trans }

let inter d1 d2 = product ( && ) d1 d2
let union d1 d2 = product ( || ) d1 d2

let is_empty_lang d =
  let d = trim d in
  not (Array.exists Fun.id d.finals)

(* Hopcroft partition refinement on the trimmed machine, with the
   dead state left implicit (Valmari and Lehtinen's variant for
   partial transition functions), in their array layout of a
   refinable partition. Every state of a trimmed machine is live, so
   no class merges with the dead one. The alphabet is refined
   globally into blocks; a transition is a (state, block) pair, and a
   splitter visits the transitions into its states. A split queues the
   smaller half, so each transition is visited O(log n) times:
   O(m·log n) for [m] transitions.

   The result is the machine Moore refinement of the completed
   machine gives, state for state: classes numbered by their least
   member, edges merged per target in the order [merge_edges] gives
   over the blocks in order, the dead class's edges dropped. So no
   output that reads state ids or edge order depends on the algorithm;
   [test/minimize_reference.ml] keeps Moore's refinement as the
   oracle. *)
let minimize_untimed d0 =
  let d = trim d0 in
  if not (Array.exists Fun.id d.finals) then d
  else begin
    let n = d.n in
    (* The alphabet blocks are the intervals between consecutive label
       boundaries: [Charset.refine] of the completed machine's labels. *)
    let boundary = Array.make 257 false in
    boundary.(0) <- true;
    boundary.(256) <- true;
    Array.iter
      (List.iter (fun (cs, _) ->
           List.iter
             (fun (lo, hi) ->
               boundary.(lo) <- true;
               boundary.(hi + 1) <- true)
             (Charset.ranges cs)))
      d.trans;
    let block_of = Array.make 256 0 in
    let bounds = ref [] and r = ref 0 and lo = ref 0 in
    for c = 1 to 256 do
      if boundary.(c) then begin
        bounds := (!lo, c - 1) :: !bounds;
        lo := c;
        incr r
      end;
      if c < 256 then block_of.(c) <- !r
    done;
    let bounds = Array.of_list (List.rev !bounds) and r = !r in
    let iter_blocks f cs =
      List.iter
        (fun (lo, hi) ->
          for i = block_of.(lo) to block_of.(hi) do
            f i
          done)
        (Charset.ranges cs)
    in
    (* transitions by target: [(in_src.(x), in_block.(x))] for [x] in
       [in_start.(q) .. in_start.(q + 1) - 1] enter [q] *)
    let in_start = Array.make (n + 1) 0 in
    Array.iter
      (List.iter (fun (cs, q') ->
           iter_blocks (fun _ -> in_start.(q' + 1) <- in_start.(q' + 1) + 1) cs))
      d.trans;
    for q = 1 to n do
      in_start.(q) <- in_start.(q) + in_start.(q - 1)
    done;
    let m = in_start.(n) in
    let in_src = Array.make m 0 and in_block = Array.make m 0 in
    let fill = Array.sub in_start 0 n in
    Array.iteri
      (fun q out ->
        List.iter
          (fun (cs, q') ->
            iter_blocks
              (fun i ->
                let x = fill.(q') in
                in_src.(x) <- q;
                in_block.(x) <- i;
                fill.(q') <- x + 1)
              cs)
          out)
      d.trans;
    (* the partition: block [b] holds [elems.(first.(b) .. last.(b) - 1)],
       its marked states first, up to [mid.(b)] *)
    let elems = Array.init n Fun.id in
    let loc = Array.init n Fun.id in
    let blk = Array.make n 0 in
    let first = Array.make n 0 in
    let last = Array.make n 0 in
    let mid = Array.make n 0 in
    last.(0) <- n;
    let blocks = ref 1 in
    let touched = Array.make n 0 in
    let touched_count = ref 0 in
    let mark q =
      let b = blk.(q) in
      let i = loc.(q) and m = mid.(b) in
      if i >= m then begin
        let p = elems.(m) in
        elems.(m) <- q;
        loc.(q) <- m;
        elems.(i) <- p;
        loc.(p) <- i;
        mid.(b) <- m + 1;
        if m = first.(b) then begin
          touched.(!touched_count) <- b;
          incr touched_count
        end
      end
    in
    let pending = Array.make n 0 in
    let pending_count = ref 0 in
    let push b =
      pending.(!pending_count) <- b;
      incr pending_count
    in
    (* Split every touched block into its marked and unmarked states.
       The smaller part becomes the new block and is queued: if the old
       block was queued it still is, and if not, the smaller half is
       the one Hopcroft's rule asks for. *)
    let split () =
      for t = 0 to !touched_count - 1 do
        let b = touched.(t) in
        let f = first.(b) and m = mid.(b) and l = last.(b) in
        mid.(b) <- f;
        if m < l then begin
          let nb = !blocks in
          incr blocks;
          if m - f <= l - m then begin
            first.(nb) <- f;
            last.(nb) <- m;
            first.(b) <- m
          end
          else begin
            first.(nb) <- m;
            last.(nb) <- l;
            last.(b) <- m
          end;
          mid.(b) <- first.(b);
          mid.(nb) <- first.(nb);
          for i = first.(nb) to last.(nb) - 1 do
            blk.(elems.(i)) <- nb
          done;
          push nb
        end
      done;
      touched_count := 0
    in
    (* With no dead state in the partition, stability under the finals
       does not imply stability under the rest: both start queued. *)
    Array.iteri (fun q is_f -> if is_f then mark q) d.finals;
    split ();
    push 0;
    (* a splitter's transitions, bucketed by block through [link] *)
    let head = Array.make r (-1) in
    let link = Array.make m 0 in
    let active = Array.make r 0 in
    while !pending_count > 0 do
      decr pending_count;
      let s = pending.(!pending_count) in
      let count = ref 0 in
      for j = first.(s) to last.(s) - 1 do
        let q = elems.(j) in
        for x = in_start.(q) to in_start.(q + 1) - 1 do
          let i = in_block.(x) in
          if head.(i) < 0 then begin
            active.(!count) <- i;
            incr count
          end;
          link.(x) <- head.(i);
          head.(i) <- x
        done
      done;
      for a = 0 to !count - 1 do
        let i = active.(a) in
        let x = ref head.(i) in
        while !x >= 0 do
          mark in_src.(!x);
          x := link.(!x)
        done;
        head.(i) <- -1;
        split ()
      done
    done;
    (* classes numbered by their least member state; the dead class
       comes after every live one *)
    let cls = Array.make n 0 in
    let class_of_block = Array.make !blocks (-1) in
    let k = ref 0 in
    for q = 0 to n - 1 do
      let b = blk.(q) in
      if class_of_block.(b) < 0 then begin
        class_of_block.(b) <- !k;
        incr k
      end;
      cls.(q) <- class_of_block.(b)
    done;
    let k = !k in
    let dead = k in
    let row = Array.make r dead in
    let ranges_of = Array.make (k + 1) [] in
    let trans = Array.make k [] in
    let finals = Array.make k false in
    let seen = Array.make k false in
    for q = 0 to n - 1 do
      let c = cls.(q) in
      if not seen.(c) then begin
        seen.(c) <- true;
        finals.(c) <- d.finals.(q);
        Array.fill row 0 r dead;
        List.iter
          (fun (cs, q') -> iter_blocks (fun i -> row.(i) <- cls.(q')) cs)
          d.trans.(q);
        let order = ref [] in
        for i = 0 to r - 1 do
          let t = row.(i) in
          let lo, hi = bounds.(i) in
          ranges_of.(t) <-
            (match ranges_of.(t) with
            | [] ->
                order := t :: !order;
                [ (lo, hi) ]
            | (lo', hi') :: rest when hi' + 1 = lo -> (lo', hi) :: rest
            | ranges -> (lo, hi) :: ranges)
        done;
        (* [merge_edges]'s table, keyed by target in order of first
           appearance, so the edge order is the one it gives *)
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun t ->
            Hashtbl.replace tbl t (Charset.of_ranges (List.rev ranges_of.(t)));
            ranges_of.(t) <- [])
          (List.rev !order);
        trans.(c) <-
          Hashtbl.fold
            (fun t cs acc -> if t = dead then acc else (cs, t) :: acc)
            tbl []
      end
    done;
    { n = k; start = cls.(d.start); finals; trans }
  end

let minimize d = Telemetry.Metrics.Timer.time t_minimize (fun () -> minimize_untimed d)

(* Pairwise bisimulation check between completed machines. *)
let equiv d1 d2 =
  let d1 = complete (trim d1) and d2 = complete (trim d2) in
  let visited = Hashtbl.create 64 in
  let worklist = Queue.create () in
  Queue.add (d1.start, d2.start) worklist;
  Hashtbl.add visited (d1.start, d2.start) ();
  let ok = ref true in
  while !ok && not (Queue.is_empty worklist) do
    let p, q = Queue.take worklist in
    if d1.finals.(p) <> d2.finals.(q) then ok := false
    else begin
      let labels = List.map fst d1.trans.(p) @ List.map fst d2.trans.(q) in
      List.iter
        (fun block ->
          let c = Charset.choose block in
          match (step d1 p c, step d2 q c) with
          | Some p', Some q' ->
              if not (Hashtbl.mem visited (p', q')) then begin
                Hashtbl.add visited (p', q') ();
                Queue.add (p', q') worklist
              end
          | _ -> assert false (* both machines are complete *))
        (Charset.refine labels)
    end
  done;
  !ok

let counterexample a b =
  (* BFS on the product of [a] with the completion of [b], looking for
     a state accepting in [a] but not in [b]. *)
  let b = complete b in
  let visited = Hashtbl.create 64 in
  let worklist = Queue.create () in
  Queue.add ((a.start, b.start), []) worklist;
  Hashtbl.add visited (a.start, b.start) ();
  let result = ref None in
  (try
     while not (Queue.is_empty worklist) do
       let (p, q), word = Queue.take worklist in
       if a.finals.(p) && not b.finals.(q) then begin
         result := Some (List.rev word);
         raise Exit
       end;
       List.iter
         (fun (cs1, p') ->
           List.iter
             (fun (cs2, q') ->
               let label = Charset.inter cs1 cs2 in
               if not (Charset.is_empty label) && not (Hashtbl.mem visited (p', q'))
               then begin
                 Hashtbl.add visited (p', q') ();
                 Queue.add ((p', q'), Charset.choose label :: word) worklist
               end)
             b.trans.(q))
         a.trans.(p)
     done
   with Exit -> ());
  Option.map
    (fun chars -> String.init (List.length chars) (List.nth chars))
    !result

let subset a b = Option.is_none (counterexample a b)

let shortest_word d =
  let visited = Array.make d.n false in
  let worklist = Queue.create () in
  Queue.add (d.start, []) worklist;
  visited.(d.start) <- true;
  let result = ref None in
  (try
     while not (Queue.is_empty worklist) do
       let q, word = Queue.take worklist in
       if d.finals.(q) then begin
         result := Some (List.rev word);
         raise Exit
       end;
       List.iter
         (fun (cs, q') ->
           if not visited.(q') then begin
             visited.(q') <- true;
             Queue.add (q', Charset.choose cs :: word) worklist
           end)
         d.trans.(q)
     done
   with Exit -> ());
  Option.map
    (fun chars -> String.init (List.length chars) (List.nth chars))
    !result

let sample_words d ~max_len ~max_count =
  let results = ref [] in
  let count = ref 0 in
  let worklist = Queue.create () in
  Queue.add (d.start, "") worklist;
  (try
     while not (Queue.is_empty worklist) do
       let q, word = Queue.take worklist in
       if d.finals.(q) then begin
         results := word :: !results;
         incr count;
         if !count >= max_count then raise Exit
       end;
       if String.length word < max_len then
         List.iter
           (fun (cs, q') ->
             Queue.add (q', word ^ String.make 1 (Charset.choose cs)) worklist)
           d.trans.(q)
     done
   with Exit -> ());
  List.rev !results

let to_dot ?(name = "dfa") d =
  let buf = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "digraph %s {\n  rankdir=LR;\n  node [shape=circle];\n" name;
  pf "  __start [shape=point];\n  __start -> q%d;\n" d.start;
  Array.iteri (fun q is_f -> if is_f then pf "  q%d [shape=doublecircle];\n" q) d.finals;
  Array.iteri
    (fun q out ->
      List.iter
        (fun (cs, q') ->
          pf "  q%d -> q%d [label=\"%s\"];\n" q q' (String.escaped (Charset.to_string cs)))
        out)
    d.trans;
  pf "}\n";
  Buffer.contents buf

let pp_summary ppf d =
  let trans = Array.fold_left (fun acc l -> acc + List.length l) 0 d.trans in
  let finals = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 d.finals in
  Fmt.pf ppf "states=%d transitions=%d finals=%d start=%d" d.n trans finals d.start
