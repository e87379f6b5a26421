(* [Automata.Ops.intersect] and [Automata.Nfa.Builder] as first
   written: one global newest-first list per edge kind, deduplicated
   at [finish] through a hash table keyed by [(src, dst, label
   ranges)], and a product that indexes pairs through a polymorphic
   [(int * int) Hashtbl] with a [Queue] of pairs as its worklist. Kept
   as the oracles the faster kernels are checked against: both must
   emit the same machine state for state — the same numbering, the
   same per-state edge order — and move the same counters.

   [Nfa.t] is abstract, so the oracles build a plain [machine]
   record; [of_nfa] reads a real machine into the same shape for
   comparison. *)

module Nfa = Automata.Nfa
module Budget = Automata.Budget
module Metrics = Telemetry.Metrics

type machine = {
  n : int;
  start : int;
  final : int;
  delta : (Charset.t * int) list array;
  eps : int list array;
}

let of_nfa m =
  let n = Nfa.num_states m in
  {
    n;
    start = Nfa.start m;
    final = Nfa.final m;
    delta = Array.init n (Nfa.char_transitions m);
    eps = Array.init n (Nfa.eps_transitions_from m);
  }

module Builder = struct
  type b = {
    mutable count : int;
    mutable trans : (int * Charset.t * int) list;
    mutable eps_edges : (int * int) list;
  }

  let create () = { count = 0; trans = []; eps_edges = [] }

  let add_state b =
    let q = b.count in
    b.count <- b.count + 1;
    q

  let add_states b k =
    let q = b.count in
    b.count <- b.count + k;
    q

  let check b q = if q < 0 || q >= b.count then invalid_arg "Nfa.Builder: bad state"

  let add_trans b src cs dst =
    check b src;
    check b dst;
    if not (Charset.is_empty cs) then b.trans <- (src, cs, dst) :: b.trans

  let add_eps b src dst =
    check b src;
    check b dst;
    b.eps_edges <- (src, dst) :: b.eps_edges

  let finish b ~start ~final =
    check b start;
    check b final;
    let delta = Array.make b.count [] in
    let eps = Array.make b.count [] in
    let seen_trans = Hashtbl.create (List.length b.trans) in
    List.iter
      (fun (src, cs, dst) ->
        let key = (src, dst, Charset.ranges cs) in
        if not (Hashtbl.mem seen_trans key) then begin
          Hashtbl.add seen_trans key ();
          delta.(src) <- (cs, dst) :: delta.(src)
        end)
      b.trans;
    let seen_eps = Hashtbl.create 64 in
    List.iter
      (fun ((_, dst) as edge) ->
        if not (Hashtbl.mem seen_eps edge) then begin
          Hashtbl.add seen_eps edge ();
          eps.(fst edge) <- dst :: eps.(fst edge)
        end)
      b.eps_edges;
    { n = b.count; start; final; delta; eps }
end

(* The library's own series: counters and histograms are keyed by
   name, so these are the cells [Ops.intersect] moves. *)
let c_visited = Metrics.Counter.make "automata.states_visited"
let c_products = Metrics.Counter.make "automata.products_built"
let h_product_states = Metrics.Histogram.make "automata.product.states"

type product = {
  machine : machine;
  pair_of : int -> int * int;
  state_of_pair : int * int -> int option;
}

let intersect m1 m2 =
  Metrics.Counter.incr c_products 1;
  Metrics.Histogram.observe h_product_states
    ~labels:[ ("dir", "in") ]
    (float_of_int (Nfa.num_states m1 * Nfa.num_states m2));
  let b = Builder.create () in
  let table : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let pairs = ref [] in
  let worklist = Queue.create () in
  let materialize pair =
    match Hashtbl.find_opt table pair with
    | Some q -> q
    | None ->
        Metrics.Counter.incr c_visited 1;
        Budget.charge_states 1;
        let q = Builder.add_state b in
        Hashtbl.add table pair q;
        pairs := (q, pair) :: !pairs;
        Queue.add pair worklist;
        q
  in
  let start_q = materialize (Nfa.start m1, Nfa.start m2) in
  let final_q = materialize (Nfa.final m1, Nfa.final m2) in
  while not (Queue.is_empty worklist) do
    let ((p, q) as pair) = Queue.take worklist in
    let src = Hashtbl.find table pair in
    List.iter
      (fun p' -> Builder.add_eps b src (materialize (p', q)))
      (Nfa.eps_transitions_from m1 p);
    List.iter
      (fun q' -> Builder.add_eps b src (materialize (p, q')))
      (Nfa.eps_transitions_from m2 q);
    List.iter
      (fun (cs1, p') ->
        List.iter
          (fun (cs2, q') ->
            let label = Charset.inter cs1 cs2 in
            if not (Charset.is_empty label) then
              Builder.add_trans b src label (materialize (p', q')))
          (Nfa.char_transitions m2 q))
      (Nfa.char_transitions m1 p)
  done;
  let machine = Builder.finish b ~start:start_q ~final:final_q in
  Metrics.Histogram.observe h_product_states
    ~labels:[ ("dir", "out") ]
    (float_of_int machine.n);
  let pair_array = Array.make machine.n (0, 0) in
  List.iter (fun (q, pair) -> pair_array.(q) <- pair) !pairs;
  {
    machine;
    pair_of = (fun q -> pair_array.(q));
    state_of_pair = (fun pair -> Hashtbl.find_opt table pair);
  }
