(* Construction counters for the complexity experiments of §3.5 of
   the paper: cost as NFA states visited by the concatenation and
   cross-product constructions, so the O(Q²)/O(Q³)/O(Q⁵) growth
   curves can be read independently of wall-clock noise. Cumulative;
   readers scope them by diffing metrics snapshots. *)
let c_visited = Telemetry.Metrics.Counter.make "automata.states_visited"
let c_products = Telemetry.Metrics.Counter.make "automata.products_built"
let c_concats = Telemetry.Metrics.Counter.make "automata.concats_built"

(* Size histograms for the two hot constructions, labeled by
   direction: "in" is the work offered (operand states; for products
   the full |M1|·|M2| grid), "out" the states actually materialized.
   The in/out gap is the reachability pruning §3.5's bounds rely on. *)
let h_concat_states = Telemetry.Metrics.Histogram.make "automata.concat.states"
let h_product_states = Telemetry.Metrics.Histogram.make "automata.product.states"

(* Construction-cost timers: the ledger and `dprle profile` attribute
   solver time to these kernels. *)
let t_concat = Telemetry.Metrics.Timer.make "automata.ops.concat"
let t_intersect = Telemetry.Metrics.Timer.make "automata.ops.intersect"
let t_repeat = Telemetry.Metrics.Timer.make "automata.ops.repeat"

type concat_result = {
  machine : Nfa.t;
  left_embed : Nfa.state -> Nfa.state;
  right_embed : Nfa.state -> Nfa.state;
  bridge : Nfa.state * Nfa.state;
}

let concat_untimed m1 m2 =
  Telemetry.Metrics.Counter.incr c_concats 1;
  Telemetry.Metrics.Counter.incr c_visited (Nfa.num_states m1 + Nfa.num_states m2);
  Telemetry.Metrics.Histogram.observe h_concat_states
    ~labels:[ ("dir", "in") ]
    (float_of_int (Nfa.num_states m1 + Nfa.num_states m2));
  let b, offset = Nfa.embed_two m1 m2 in
  let f1 = Nfa.final m1 in
  let s2 = Nfa.start m2 + offset in
  Nfa.Builder.add_eps b f1 s2;
  let machine =
    Nfa.Builder.finish b ~start:(Nfa.start m1) ~final:(Nfa.final m2 + offset)
  in
  Telemetry.Metrics.Histogram.observe h_concat_states
    ~labels:[ ("dir", "out") ]
    (float_of_int (Nfa.num_states machine));
  {
    machine;
    left_embed = Fun.id;
    right_embed = (fun q -> q + offset);
    bridge = (f1, s2);
  }

let concat m1 m2 = Telemetry.Metrics.Timer.time t_concat (fun () -> concat_untimed m1 m2)
let concat_lang m1 m2 = (concat m1 m2).machine

type product_result = {
  machine : Nfa.t;
  pair_of : Nfa.state -> Nfa.state * Nfa.state;
  state_of_pair : Nfa.state * Nfa.state -> Nfa.state option;
}

(* Open-addressing map from a pair's key [p·|M2| + q] to its product
   state, with linear probing. Its capacity is a power of two kept at
   least twice the entries, so memory follows the states emitted,
   never the |M1|·|M2| grid. *)
module Pair_table = struct
  type t = { mutable keys : int array; mutable vals : int array; mutable size : int }

  let create () = { keys = Array.make 64 (-1); vals = Array.make 64 0; size = 0 }

  (* Multiplicative hashing: bits 20 and up of the product depend on
     every lower bit of the key, so consecutive keys spread apart. *)
  let slot keys k =
    let mask = Array.length keys - 1 in
    let i = ref ((k * 0x2545F4914F6CDD1D) lsr 20 land mask) in
    while
      let k' = Array.unsafe_get keys !i in
      k' <> k && k' <> -1
    do
      i := (!i + 1) land mask
    done;
    !i

  let find t k =
    let i = slot t.keys k in
    if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i else -1

  let grow t =
    let keys = t.keys and vals = t.vals in
    let cap = 2 * Array.length keys in
    t.keys <- Array.make cap (-1);
    t.vals <- Array.make cap 0;
    Array.iteri
      (fun i k ->
        if k >= 0 then begin
          let j = slot t.keys k in
          t.keys.(j) <- k;
          t.vals.(j) <- vals.(i)
        end)
      keys

  (* [k] must be absent *)
  let add t k v =
    if 2 * (t.size + 1) > Array.length t.keys then grow t;
    let i = slot t.keys k in
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1
end

let intersect_untimed m1 m2 =
  Telemetry.Metrics.Counter.incr c_products 1;
  Telemetry.Metrics.Histogram.observe h_product_states
    ~labels:[ ("dir", "in") ]
    (float_of_int (Nfa.num_states m1 * Nfa.num_states m2));
  let n1 = Nfa.num_states m1 and n2 = Nfa.num_states m2 in
  let b = Nfa.Builder.create () in
  let table = Pair_table.create () in
  (* the pair key of state [i], for every materialized [i] *)
  let keys = ref (Array.make 64 0) in
  let count = ref 0 in
  let materialize p q =
    let k = (p * n2) + q in
    let found = Pair_table.find table k in
    if found >= 0 then found
    else begin
      let id = Nfa.Builder.add_state b in
      Pair_table.add table k id;
      if id = Array.length !keys then begin
        let grown = Array.make (2 * id) 0 in
        Array.blit !keys 0 grown 0 id;
        keys := grown
      end;
      !keys.(id) <- k;
      count := id + 1;
      (* charged once counted, so a budget stop counts the state that
         tripped it *)
      Budget.charge_states 1;
      id
    end
  in
  (* The worklist is the states themselves in creation order: each is
     expanded once, after every state materialized before it. *)
  let build () =
    let start_q = materialize (Nfa.start m1) (Nfa.start m2) in
    (* The final pair must exist even if it turns out unreachable, so
       the result is a well-formed single-final machine. *)
    let final_q = materialize (Nfa.final m1) (Nfa.final m2) in
    let src = ref 0 in
    while !src < !count do
      let k = !keys.(!src) in
      let p = k / n2 and q = k mod n2 in
      (* ε-moves are taken independently in either component. *)
      List.iter
        (fun p' -> Nfa.Builder.add_eps b !src (materialize p' q))
        (Nfa.eps_transitions_from m1 p);
      List.iter
        (fun q' -> Nfa.Builder.add_eps b !src (materialize p q'))
        (Nfa.eps_transitions_from m2 q);
      (* Character moves require both components to advance on a common
         label. *)
      let moves2 = Nfa.char_transitions m2 q in
      List.iter
        (fun (cs1, p') ->
          List.iter
            (fun (cs2, q') ->
              let label = Charset.inter cs1 cs2 in
              if not (Charset.is_empty label) then
                Nfa.Builder.add_trans b !src label (materialize p' q'))
            moves2)
        (Nfa.char_transitions m1 p);
      incr src
    done;
    Nfa.Builder.finish b ~start:start_q ~final:final_q
  in
  (* one counter update per call; a budget stop mid-product still
     counts the states it visited *)
  let machine =
    Fun.protect
      ~finally:(fun () -> Telemetry.Metrics.Counter.incr c_visited !count)
      build
  in
  Telemetry.Metrics.Histogram.observe h_product_states
    ~labels:[ ("dir", "out") ]
    (float_of_int (Nfa.num_states machine));
  let keys = !keys and count = !count in
  {
    machine;
    pair_of =
      (fun q ->
        if q < 0 || q >= count then invalid_arg "Ops.intersect: pair_of";
        let k = keys.(q) in
        (k / n2, k mod n2));
    state_of_pair =
      (fun (p, q) ->
        if p < 0 || p >= n1 || q < 0 || q >= n2 then None
        else
          match Pair_table.find table ((p * n2) + q) with -1 -> None | s -> Some s);
  }

let intersect m1 m2 =
  Telemetry.Metrics.Timer.time t_intersect (fun () -> intersect_untimed m1 m2)

let inter_lang m1 m2 = (intersect m1 m2).machine

let union_lang m1 m2 =
  let b, offset = Nfa.embed_two m1 m2 in
  let s = Nfa.Builder.add_state b in
  let f = Nfa.Builder.add_state b in
  Nfa.Builder.add_eps b s (Nfa.start m1);
  Nfa.Builder.add_eps b s (Nfa.start m2 + offset);
  Nfa.Builder.add_eps b (Nfa.final m1) f;
  Nfa.Builder.add_eps b (Nfa.final m2 + offset) f;
  Nfa.Builder.finish b ~start:s ~final:f

(* Copy [m] into a fresh builder, returning the embedded start/final. *)
let embed m b =
  let first = Nfa.Builder.add_machine b m in
  (Nfa.start m + first, Nfa.final m + first)

let star m =
  let b = Nfa.Builder.create () in
  let s = Nfa.Builder.add_state b in
  let f = Nfa.Builder.add_state b in
  let ms, mf = embed m b in
  Nfa.Builder.add_eps b s ms;
  Nfa.Builder.add_eps b mf f;
  Nfa.Builder.add_eps b s f;
  Nfa.Builder.add_eps b mf ms;
  Nfa.Builder.finish b ~start:s ~final:f

let plus m = concat_lang m (star m)

let opt m = union_lang m Nfa.epsilon_lang

let repeat_untimed m ~min_count ~max_count =
  if min_count < 0 then invalid_arg "Ops.repeat: negative min";
  (match max_count with
  | Some mx when mx < min_count -> invalid_arg "Ops.repeat: max < min"
  | _ -> ());
  (* Single builder pass: each copy of [m] is embedded exactly once
     and chained by ε-edges, so the machine has Θ(k·|m|) states — the
     old recursive [concat_lang] helpers re-embedded the accumulated
     prefix on every step, visiting O(k²·|m|) states. *)
  let b = Nfa.Builder.create () in
  let start = Nfa.Builder.add_state b in
  let cur = ref start in
  for _ = 1 to min_count do
    let ms, mf = embed m b in
    Nfa.Builder.add_eps b !cur ms;
    cur := mf
  done;
  let final = Nfa.Builder.add_state b in
  (match max_count with
  | None ->
      (* mandatory prefix followed by a star over one more copy *)
      let ms, mf = embed m b in
      Nfa.Builder.add_eps b !cur ms;
      Nfa.Builder.add_eps b !cur final;
      Nfa.Builder.add_eps b mf ms;
      Nfa.Builder.add_eps b mf final
  | Some mx ->
      (* (max-min) optional copies, each with an early ε-exit *)
      Nfa.Builder.add_eps b !cur final;
      for _ = 1 to mx - min_count do
        let ms, mf = embed m b in
        Nfa.Builder.add_eps b !cur ms;
        Nfa.Builder.add_eps b mf final;
        cur := mf
      done);
  Nfa.Builder.finish b ~start ~final

let repeat m ~min_count ~max_count =
  Telemetry.Metrics.Timer.time t_repeat (fun () ->
      repeat_untimed m ~min_count ~max_count)

(* The original quadratic construction, retained as the language
   oracle for the cross-check suite. *)
let repeat_reference m ~min_count ~max_count =
  if min_count < 0 then invalid_arg "Ops.repeat: negative min";
  (match max_count with
  | Some mx when mx < min_count -> invalid_arg "Ops.repeat: max < min"
  | _ -> ());
  let rec copies k = if k = 0 then Nfa.epsilon_lang else concat_lang m (copies (k - 1)) in
  match max_count with
  | None -> concat_lang (copies min_count) (star m)
  | Some mx ->
      (* mandatory prefix followed by (max-min) optional copies *)
      let rec optionals k =
        if k = 0 then Nfa.epsilon_lang else opt (concat_lang m (optionals (k - 1)))
      in
      concat_lang (copies min_count) (optionals (mx - min_count))
