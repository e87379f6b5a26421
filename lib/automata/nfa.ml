type state = int

module StateSet = Set.Make (Int)

(* Peak BFS frontier width per reachability query; together with
   automata.subset.visited this is the observable the hot-path
   rewrites of this layer are judged against (DESIGN.md §8). *)
let h_bfs_frontier = Telemetry.Metrics.Histogram.make "automata.bfs.frontier"

type t = {
  n : int;
  start : state;
  final : state;
  delta : (Charset.t * state) list array; (* indexed by source state *)
  eps : state list array;
  (* Lazily-built indexes over the immutable delta/eps arrays. They
     are shared (not recomputed) by the [{ m with ... }] copies the
     induce operations make, which is safe because they depend only on
     the transition structure, never on start/final. Atomic because
     top-level machines (attack languages, compiled constants) are
     shared read-only across engine worker domains: the Atomic
     get/set pair publishes the fully-built index, where a plain
     mutable field could expose another domain to a partially-written
     array. Two domains may race to build the same index; both results
     are equal, so the losing write is harmless. *)
  preds : state list array option Atomic.t;
  eps_index : (int, unit) Hashtbl.t option Atomic.t;
}

let num_states m = m.n
let start m = m.start
let final m = m.final
let states m = List.init m.n Fun.id
let char_transitions m q = m.delta.(q)
let eps_transitions_from m q = m.eps.(q)

(* Predecessor adjacency (character and ε edges together), built on
   first co-reachability query and cached. *)
let preds m =
  match Atomic.get m.preds with
  | Some p -> p
  | None ->
      let p = Array.make m.n [] in
      for q = 0 to m.n - 1 do
        List.iter (fun (_, q') -> p.(q') <- q :: p.(q')) m.delta.(q);
        List.iter (fun q' -> p.(q') <- q :: p.(q')) m.eps.(q)
      done;
      Atomic.set m.preds (Some p);
      p

(* ε-edge membership index: keys are [p * n + q]. Built on first
   [has_eps_edge] so the full-state scans in Ci stop paying a
   [List.mem] per candidate pair. *)
let eps_index m =
  match Atomic.get m.eps_index with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 64 in
      for q = 0 to m.n - 1 do
        List.iter (fun q' -> Hashtbl.replace t ((q * m.n) + q') ()) m.eps.(q)
      done;
      Atomic.set m.eps_index (Some t);
      t

let has_eps_edge m p q = Hashtbl.mem (eps_index m) ((p * m.n) + q)

let fold_char_transitions m ~init ~f =
  let acc = ref init in
  for q = 0 to m.n - 1 do
    List.iter (fun (cs, q') -> acc := f !acc q cs q') m.delta.(q)
  done;
  !acc

let induce_from_final m q =
  if q < 0 || q >= m.n then invalid_arg "Nfa.induce_from_final";
  { m with final = q }

let induce_from_start m q =
  if q < 0 || q >= m.n then invalid_arg "Nfa.induce_from_start";
  { m with start = q }

module Builder = struct
  (* Edges are kept per source state, in arrays that grow by doubling
     with the state count, so [finish] dedupes each state's lists on
     their own and its cost follows the machine being built. A state
     filled only by {!add_machine} holds lists an earlier [finish]
     already deduped, in add order, and they are not checked again.
     The first single edge added to a state makes it [dirty]: its
     lists turn newest first, and [finish] dedupes them. *)
  type b = {
    mutable count : int;
    mutable trans : (Charset.t * state) list array;
    mutable eps_edges : state list array;
    mutable dirty : Bytes.t;
  }

  let create () =
    {
      count = 0;
      trans = Array.make 8 [];
      eps_edges = Array.make 8 [];
      dirty = Bytes.make 8 '\000';
    }

  let reserve b count =
    let cap = Array.length b.trans in
    if count > cap then begin
      let cap' = max count (2 * cap) in
      let grow a =
        let a' = Array.make cap' [] in
        Array.blit a 0 a' 0 cap;
        a'
      in
      b.trans <- grow b.trans;
      b.eps_edges <- grow b.eps_edges;
      b.dirty <- Bytes.extend b.dirty 0 (cap' - cap);
      Bytes.fill b.dirty cap (cap' - cap) '\000'
    end

  let add_states b k =
    let q = b.count in
    reserve b (q + k);
    b.count <- q + k;
    q

  let add_state b = add_states b 1

  let check b q = if q < 0 || q >= b.count then invalid_arg "Nfa.Builder: bad state"

  let make_dirty b q =
    if Bytes.unsafe_get b.dirty q = '\000' then begin
      Bytes.unsafe_set b.dirty q '\001';
      b.trans.(q) <- List.rev b.trans.(q);
      b.eps_edges.(q) <- List.rev b.eps_edges.(q)
    end

  let add_trans b src cs dst =
    check b src;
    check b dst;
    if not (Charset.is_empty cs) then begin
      make_dirty b src;
      b.trans.(src) <- (cs, dst) :: b.trans.(src)
    end

  let add_eps b src dst =
    check b src;
    check b dst;
    make_dirty b src;
    b.eps_edges.(src) <- dst :: b.eps_edges.(src)

  let add_machine b m =
    let offset = add_states b m.n in
    if offset = 0 then begin
      Array.blit m.delta 0 b.trans 0 m.n;
      Array.blit m.eps 0 b.eps_edges 0 m.n
    end
    else
      for q = 0 to m.n - 1 do
        b.trans.(q + offset) <- List.map (fun (cs, q') -> (cs, q' + offset)) m.delta.(q);
        b.eps_edges.(q + offset) <- List.map (fun q' -> q' + offset) m.eps.(q)
      done;
    offset

  (* Past this many edges a state's duplicates are found through a
     table rather than by scanning the edges kept so far. *)
  let scan_limit = 16

  (* [edges] is newest first. Walking it so, each edge is kept unless
     a newer copy was, and consing the kept ones restores add order:
     the rule is add order with the newest copy of a duplicate kept. *)
  let dedupe ~same ~key edges =
    match edges with
    | [] | [ _ ] -> edges
    | _ when List.compare_length_with edges scan_limit <= 0 ->
        List.fold_left
          (fun kept e -> if List.exists (same e) kept then kept else e :: kept)
          [] edges
    | _ ->
        let seen = Hashtbl.create (2 * scan_limit) in
        List.fold_left
          (fun kept e ->
            let k = key e in
            if Hashtbl.mem seen k then kept
            else begin
              Hashtbl.add seen k ();
              e :: kept
            end)
          [] edges

  let same_trans (cs, d) (cs', d') = d = d' && Charset.compare cs cs' = 0
  let trans_key (cs, d) = (d, Charset.ranges cs)

  let finish b ~start ~final =
    check b start;
    check b final;
    let n = b.count in
    let delta = Array.sub b.trans 0 n and eps = Array.sub b.eps_edges 0 n in
    for q = 0 to n - 1 do
      if Bytes.unsafe_get b.dirty q <> '\000' then begin
        delta.(q) <- dedupe ~same:same_trans ~key:trans_key delta.(q);
        eps.(q) <- dedupe ~same:Int.equal ~key:Fun.id eps.(q)
      end
    done;
    {
      n;
      start;
      final;
      delta;
      eps;
      preds = Atomic.make None;
      eps_index = Atomic.make None;
    }
end

let empty_lang =
  let b = Builder.create () in
  let s = Builder.add_state b in
  let f = Builder.add_state b in
  Builder.finish b ~start:s ~final:f

let epsilon_lang =
  let b = Builder.create () in
  let s = Builder.add_state b in
  let f = Builder.add_state b in
  Builder.add_eps b s f;
  Builder.finish b ~start:s ~final:f

let of_charset cs =
  let b = Builder.create () in
  let s = Builder.add_state b in
  let f = Builder.add_state b in
  Builder.add_trans b s cs f;
  Builder.finish b ~start:s ~final:f

let of_word w =
  let len = String.length w in
  let b = Builder.create () in
  let first = Builder.add_states b (len + 1) in
  for i = 0 to len - 1 do
    Builder.add_trans b (first + i) (Charset.singleton w.[i]) (first + i + 1)
  done;
  Builder.finish b ~start:first ~final:(first + len)

let sigma_star =
  (* A single state with a Σ self-loop is both start and final; this
     keeps the Σ* machines that seed every variable node small. *)
  let b = Builder.create () in
  let s = Builder.add_state b in
  Builder.add_trans b s Charset.full s;
  Builder.finish b ~start:s ~final:s

(* ------------------------------------------------------------------ *)
(* Dense breadth-first searches. One byte per state plus a
   preallocated worklist replaces the functional [StateSet] frontiers:
   every state is enqueued at most once, membership is an array read,
   and nothing is allocated inside the loop. The set-frontier
   originals are the oracles of the randomized cross-check suite
   ([test/kernel_reference.ml]). *)

module Flags = struct
  type set = Bytes.t

  let mem fl q = Bytes.unsafe_get fl q <> '\000'
end

let flags_to_set fl =
  let acc = ref StateSet.empty in
  for q = Bytes.length fl - 1 downto 0 do
    if Bytes.unsafe_get fl q <> '\000' then acc := StateSet.add q !acc
  done;
  !acc

(* Generic worklist BFS: [roots] seed the search, [iter_succ q push]
   feeds the successors of [q]. Returns the visited flags; observes
   the peak frontier width when [observe] is set. *)
let bfs ?(observe = false) ~n ~roots ~iter_succ () =
  let seen = Bytes.make n '\000' in
  let queue = Array.make (max n 1) 0 in
  let head = ref 0 and tail = ref 0 in
  let peak = ref 0 in
  let push q =
    if Bytes.unsafe_get seen q = '\000' then begin
      Bytes.unsafe_set seen q '\001';
      queue.(!tail) <- q;
      incr tail
    end
  in
  List.iter push roots;
  while !head < !tail do
    Budget.tick ();
    if !tail - !head > !peak then peak := !tail - !head;
    let q = queue.(!head) in
    incr head;
    iter_succ q push
  done;
  if observe then
    Telemetry.Metrics.Histogram.observe h_bfs_frontier (float_of_int !peak);
  seen

let eps_closure m set =
  (* Fast path: most sets in the simulation loops have no outgoing
     ε-edges at all, and are their own closure. *)
  if StateSet.for_all (fun q -> m.eps.(q) = []) set then set
  else
    flags_to_set
      (bfs ~n:m.n ~roots:(StateSet.elements set)
         ~iter_succ:(fun q push -> List.iter push m.eps.(q))
         ())

let step m set c =
  let moved =
    StateSet.fold
      (fun q acc ->
        List.fold_left
          (fun acc (cs, q') -> if Charset.mem c cs then StateSet.add q' acc else acc)
          acc m.delta.(q))
      set StateSet.empty
  in
  eps_closure m moved

let accepts m w =
  let initial = eps_closure m (StateSet.singleton m.start) in
  let final_set =
    String.fold_left (fun set c -> step m set c) initial w
  in
  StateSet.mem m.final final_set

let reachable_flags m q0 =
  bfs ~observe:true ~n:m.n ~roots:[ q0 ]
    ~iter_succ:(fun q push ->
      List.iter (fun (_, q') -> push q') m.delta.(q);
      List.iter push m.eps.(q))
    ()

let coreachable_flags m q0 =
  let preds = preds m in
  bfs ~observe:true ~n:m.n ~roots:[ q0 ]
    ~iter_succ:(fun q push -> List.iter push preds.(q))
    ()

(* Emptiness needs no full closure: stop the moment the final state is
   flagged. *)
let is_empty_lang m =
  if m.start = m.final then false
  else begin
    let seen = Bytes.make m.n '\000' in
    let queue = Array.make m.n 0 in
    let head = ref 0 and tail = ref 0 in
    let peak = ref 0 in
    let found = ref false in
    let push q =
      if Bytes.unsafe_get seen q = '\000' then begin
        Bytes.unsafe_set seen q '\001';
        if q = m.final then found := true
        else begin
          queue.(!tail) <- q;
          incr tail
        end
      end
    in
    push m.start;
    while (not !found) && !head < !tail do
      Budget.tick ();
      if !tail - !head > !peak then peak := !tail - !head;
      let q = queue.(!head) in
      incr head;
      List.iter (fun (_, q') -> push q') m.delta.(q);
      List.iter push m.eps.(q)
    done;
    Telemetry.Metrics.Histogram.observe h_bfs_frontier (float_of_int !peak);
    not !found
  end

let shortest_word m =
  (* BFS over single states; ε-edges cost nothing but BFS layers are
     by word length, so we expand ε-closures eagerly. *)
  let visited = Array.make m.n false in
  let q = Queue.create () in
  let enqueue_closure st word =
    StateSet.iter
      (fun s ->
        if not visited.(s) then begin
          visited.(s) <- true;
          Queue.add (s, word) q
        end)
      (eps_closure m (StateSet.singleton st))
  in
  enqueue_closure m.start [];
  let result = ref None in
  (try
     while not (Queue.is_empty q) do
       let s, word = Queue.take q in
       if s = m.final then begin
         result := Some (List.rev word);
         raise Exit
       end;
       List.iter
         (fun (cs, s') ->
           if not visited.(s') then enqueue_closure s' (Charset.choose cs :: word))
         m.delta.(s)
     done
   with Exit -> ());
  Option.map (fun chars -> String.init (List.length chars) (List.nth chars)) !result

let sample_words m ~max_len ~max_count =
  let results = ref [] in
  let count = ref 0 in
  let q = Queue.create () in
  Queue.add (eps_closure m (StateSet.singleton m.start), "") q;
  (* BFS on ε-closed state sets; each set is paired with one concrete
     word, so the sample is a subset of the language, not a cover. *)
  let seen = Hashtbl.create 64 in
  (try
     while not (Queue.is_empty q) do
       let set, word = Queue.take q in
       if StateSet.mem m.final set && not (Hashtbl.mem seen word) then begin
         Hashtbl.add seen word ();
         results := word :: !results;
         incr count;
         if !count >= max_count then raise Exit
       end;
       if String.length word < max_len then begin
         let labels =
           StateSet.fold (fun s acc -> List.map fst m.delta.(s) @ acc) set []
         in
         let blocks = Charset.refine labels in
         List.iter
           (fun block ->
             let c = Charset.choose block in
             let set' = step m set c in
             if not (StateSet.is_empty set') then
               Queue.add (set', word ^ String.make 1 c) q)
           blocks
       end
     done
   with Exit -> ());
  List.rev !results

let trim m =
  let reach = reachable_flags m m.start and coreach = coreachable_flags m m.final in
  (* live states keep their relative order, so the renaming is a
     prefix count over the live flags *)
  let rename = Array.make m.n (-1) in
  let live = ref 0 in
  for q = 0 to m.n - 1 do
    if Flags.mem reach q && Flags.mem coreach q then begin
      rename.(q) <- !live;
      incr live
    end
  done;
  if rename.(m.start) < 0 || rename.(m.final) < 0 then
    (* Empty language: canonical two-state empty machine; no original
       state survives. *)
    (empty_lang, Array.make m.n (-1))
  else begin
    (* Filtering a deduped edge list through an injective renaming
       keeps it deduped and in order: no Builder pass is needed. *)
    let n = !live in
    let delta = Array.make n [] and eps = Array.make n [] in
    for q = 0 to m.n - 1 do
      let q' = rename.(q) in
      if q' >= 0 then begin
        delta.(q') <-
          List.filter_map
            (fun (cs, d) -> if rename.(d) >= 0 then Some (cs, rename.(d)) else None)
            m.delta.(q);
        eps.(q') <-
          List.filter_map
            (fun d -> if rename.(d) >= 0 then Some rename.(d) else None)
            m.eps.(q)
      end
    done;
    let machine =
      {
        n;
        start = rename.(m.start);
        final = rename.(m.final);
        delta;
        eps;
        preds = Atomic.make None;
        eps_index = Atomic.make None;
      }
    in
    (machine, rename)
  end

let embed_two m1 m2 =
  let b = Builder.create () in
  let _ = Builder.add_machine b m1 in
  let offset = Builder.add_machine b m2 in
  (b, offset)

let pp_summary ppf m =
  let trans = Array.fold_left (fun acc l -> acc + List.length l) 0 m.delta in
  let epses = Array.fold_left (fun acc l -> acc + List.length l) 0 m.eps in
  Fmt.pf ppf "states=%d transitions=%d eps=%d start=%d final=%d" m.n trans epses
    m.start m.final
