(* [Ops.intersect] and [Nfa.Builder] against the oracles in
   [Product_reference]: the machines must agree state for state, not
   merely in language, since store keys, cut indexes and witnesses
   all read state ids and edge order. The properties draw from
   [Helpers.nfa_gen]; the fixed cases reuse the seeded machine streams
   of [Test_crosscheck]. *)

open Helpers
module Nfa = Automata.Nfa
module Ops = Automata.Ops
module Ref = Product_reference
module Metrics = Telemetry.Metrics
module Budget = Automata.Budget

let rand_nfa = Test_crosscheck.rand_nfa
let rand_dense_nfa = Test_crosscheck.rand_dense_nfa

let same_machine (a : Ref.machine) (b : Ref.machine) =
  let same_edge (c, d) (c', d') = d = d' && Charset.equal c c' in
  a.n = b.n && a.start = b.start && a.final = b.final
  && Array.for_all2 (List.equal same_edge) a.delta b.delta
  && Array.for_all2 (List.equal Int.equal) a.eps b.eps

let same_product m1 m2 =
  let p = Ops.intersect m1 m2 and r = Ref.intersect m1 m2 in
  let pairs =
    List.concat_map
      (fun a -> List.map (fun b -> (a, b)) (Nfa.states m2))
      (Nfa.states m1)
  in
  same_machine (Ref.of_nfa p.Ops.machine) r.Ref.machine
  && List.for_all
       (fun q -> p.Ops.pair_of q = r.Ref.pair_of q)
       (Nfa.states p.Ops.machine)
  && List.for_all (fun pr -> p.Ops.state_of_pair pr = r.Ref.state_of_pair pr) pairs
  && p.Ops.state_of_pair (Nfa.num_states m1, 0) = None
  && p.Ops.state_of_pair (0, Nfa.num_states m2) = None

(* An edge script over [n] states, duplicates likely: three labels,
   few states. *)
type edge = Trans of int * Charset.t * int | Eps of int * int

let script_gen n =
  let open QCheck2.Gen in
  let label =
    oneofl [ Charset.singleton 'a'; Charset.range 'a' 'b'; Charset.singleton 'c' ]
  in
  list_size (int_range 0 60)
    (let* src = int_bound (n - 1) in
     let* dst = int_bound (n - 1) in
     let* l = label in
     let* is_eps = int_bound 3 in
     return (if is_eps = 0 then Eps (src, dst) else Trans (src, l, dst)))

(* [m] embedded with [add_machine] (or edge by edge in the oracle),
   then [k] fresh states, then the script over all of them *)
let build_both m k script =
  let b = Nfa.Builder.create () and rb = Ref.Builder.create () in
  let off = Nfa.Builder.add_machine b m in
  let roff = Ref.Builder.add_states rb (Nfa.num_states m) in
  List.iter
    (fun q ->
      List.iter
        (fun (cs, d) -> Ref.Builder.add_trans rb (roff + q) cs (roff + d))
        (Nfa.char_transitions m q);
      List.iter
        (fun d -> Ref.Builder.add_eps rb (roff + q) (roff + d))
        (Nfa.eps_transitions_from m q))
    (Nfa.states m);
  ignore (Nfa.Builder.add_states b k);
  ignore (Ref.Builder.add_states rb k);
  List.iter
    (function
      | Trans (s, cs, d) ->
          Nfa.Builder.add_trans b s cs d;
          Ref.Builder.add_trans rb s cs d
      | Eps (s, d) ->
          Nfa.Builder.add_eps b s d;
          Ref.Builder.add_eps rb s d)
    script;
  let final = Nfa.num_states m + k - 1 in
  ( Ref.of_nfa (Nfa.Builder.finish b ~start:off ~final),
    Ref.Builder.finish rb ~start:roff ~final )

let histogram_stats snap name =
  List.sort compare
    (List.filter_map
       (fun (n, labels, (h : Metrics.Snapshot.histogram_stat)) ->
         if n = name then Some (labels, h.count, h.sum, h.buckets) else None)
       (Metrics.Snapshot.histograms snap))

(* the construction series a run of [f] moves *)
let product_series f =
  let before = Metrics.Snapshot.of_default () in
  let result = f () in
  let d = Metrics.Snapshot.diff ~after:(Metrics.Snapshot.of_default ()) ~before in
  ( result,
    Metrics.Snapshot.counter_value d "automata.states_visited",
    Metrics.Snapshot.counter_value d "automata.products_built",
    histogram_stats d "automata.product.states" )

(* A 41-state literal against an unanchored keyword pattern: a
   product large enough for budgets to trip mid-way. *)
let literal_pair () =
  let lit = Nfa.of_word "select * from t where id='1' or 1=1 --" in
  let pat =
    Ops.concat_lang (Ops.concat_lang Nfa.sigma_star (Nfa.of_word "or 1")) Nfa.sigma_star
  in
  (lit, pat)

let reference_tests =
  [
    qtest ~count:500 "intersect emits the reference product state for state"
      QCheck2.Gen.(pair nfa_gen nfa_gen)
      (fun (m1, m2) -> same_product m1 m2);
    test "intersect emits the reference product on dense and literal pairs" (fun () ->
        let rng = Random.State.make [| 0x9e1; 0x5e7 |] in
        for i = 1 to 200 do
          let m1 = rand_dense_nfa rng and m2 = rand_dense_nfa rng in
          if not (same_product m1 m2) then
            Alcotest.failf "dense product diverged from reference on case %d" i
        done;
        let lit, pat = literal_pair () in
        check_bool "literal x pattern" true (same_product lit pat));
    qtest ~count:300 "builder finishes as the reference builder"
      QCheck2.Gen.(
        let* m = nfa_gen in
        let* k = int_range 1 4 in
        let* script = script_gen (Nfa.num_states m + k) in
        return (m, k, script))
      (fun (m, k, script) ->
        let real, oracle = build_both m k script in
        same_machine real oracle);
    test "builder keeps the newest copy of a duplicate, in add order" (fun () ->
        let older = Charset.of_ranges [ (97, 97) ] in
        let newer = Charset.of_ranges [ (97, 97) ] in
        check_bool "two distinct copies of one label" true (older != newer);
        let b = Nfa.Builder.create () in
        let s = Nfa.Builder.add_states b 3 in
        Nfa.Builder.add_trans b s older (s + 1);
        Nfa.Builder.add_trans b s Charset.digit (s + 2);
        Nfa.Builder.add_trans b s newer (s + 1);
        Nfa.Builder.add_eps b s (s + 1);
        Nfa.Builder.add_eps b s (s + 2);
        Nfa.Builder.add_eps b s (s + 1);
        let m = Nfa.Builder.finish b ~start:s ~final:(s + 2) in
        (match Nfa.char_transitions m s with
        | [ (d, q1); (a, q2) ] ->
            check_bool "digit edge first" true
              (Charset.equal d Charset.digit && q1 = s + 2);
            check_int "duplicate last" (s + 1) q2;
            check_bool "the newest copy is the one kept" true (a == newer)
        | l -> Alcotest.failf "expected 2 char edges, got %d" (List.length l));
        Alcotest.(check (list int)) "ε-edges in add order, newest copy kept"
          [ s + 2; s + 1 ]
          (Nfa.eps_transitions_from m s);
        (* past the scan limit duplicates go through a table: same rule *)
        let wide = Nfa.Builder.create () and rwide = Ref.Builder.create () in
        let w = Nfa.Builder.add_states wide 40 in
        ignore (Ref.Builder.add_states rwide 40);
        for i = 0 to 99 do
          let cs = Charset.singleton (Char.chr (97 + (i mod 3))) in
          let d = (i * 7) mod 40 in
          Nfa.Builder.add_trans wide w cs d;
          Ref.Builder.add_trans rwide w cs d;
          Nfa.Builder.add_eps wide w ((i * 3) mod 40);
          Ref.Builder.add_eps rwide w ((i * 3) mod 40)
        done;
        check_bool "wide state matches the reference" true
          (same_machine
             (Ref.of_nfa (Nfa.Builder.finish wide ~start:w ~final:(w + 1)))
             (Ref.Builder.finish rwide ~start:w ~final:(w + 1))));
    test "intersect moves the reference's counters and histogram" (fun () ->
        let rng = Random.State.make [| 0xc0c; 0x5e7 |] in
        let pairs = List.init 60 (fun _ -> (rand_nfa rng, rand_nfa rng)) in
        let pairs = literal_pair () :: pairs in
        let run f =
          product_series (fun () -> List.iter (fun (a, b) -> ignore (f a b)) pairs)
        in
        let (), visited, products, hist = run Ops.intersect in
        let (), visited', products', hist' = run Ref.intersect in
        check_int "automata.states_visited" visited' visited;
        check_int "automata.products_built" products' products;
        check_bool "automata.product.states" true (hist = hist'));
    test "a state budget trips at the reference's emitted-state count" (fun () ->
        let lit, pat = literal_pair () in
        let n = Nfa.num_states (Ops.inter_lang lit pat) in
        check_bool "product spans several states" true (n > 4);
        List.iter
          (fun cap ->
            let budgeted f () =
              let budget = Budget.make ~max_states:cap () in
              match Budget.run budget (fun () -> ignore (f lit pat)) with
              | Ok () -> "ok"
              | Error stop -> Budget.stop_to_string stop
            in
            let outcome, visited, products, _ =
              product_series (budgeted Ops.intersect)
            in
            let outcome', visited', products', _ =
              product_series (budgeted Ref.intersect)
            in
            let what = Printf.sprintf "cap %d" cap in
            check_string (what ^ ": outcome") outcome' outcome;
            check_int (what ^ ": states visited") visited' visited;
            check_int (what ^ ": products") products' products)
          [ 1; 2; 3; n / 2; n - 1; n ]);
  ]

(* [Dfa.minimize] (Hopcroft) against [Minimize_reference.moore]: the
   same machine state for state (numbering, finals, per-state edge
   lists in order), so no output that reads state ids or edge order
   moves with the algorithm. [automata:props] holds it to Brzozowski's
   minimization in language and size. *)
module Dfa = Automata.Dfa
module Mref = Minimize_reference

let same_minimal d =
  let h = Mref.of_dfa (Dfa.minimize d) and m = Mref.moore d in
  let same_edge (c, q) (c', q') = q = q' && Charset.equal c c' in
  h.n = m.n && h.start = m.start && h.finals = m.finals
  && Array.for_all2 (List.equal same_edge) h.trans m.trans

(* Random machines whose labels are drawn over all 256 bytes, so the
   refined alphabet has many blocks and every state many edges. *)
let dense_nfa_gen =
  let open QCheck2.Gen in
  let* n = int_range 2 8 in
  let* edges =
    list_size (int_range 4 40)
      (triple (int_bound (n - 1)) charset_gen (int_bound (n - 1)))
  in
  let* eps = list_size (int_range 0 2) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
  let b = Nfa.Builder.create () in
  let first = Nfa.Builder.add_states b n in
  List.iter (fun (s, cs, d) -> Nfa.Builder.add_trans b (first + s) cs (first + d)) edges;
  List.iter (fun (s, d) -> Nfa.Builder.add_eps b (first + s) (first + d)) eps;
  return (Nfa.Builder.finish b ~start:first ~final:(first + 1))

(* A literal over 26 letters, [states - 1] characters long: its DFA is
   a chain of [states] states. *)
let chain_word rng states =
  String.init (states - 1) (fun _ -> Char.chr (97 + Random.State.int rng 26))

let minimize_tests =
  [
    qtest ~count:500 "hopcroft equals Moore on random machines" nfa_gen
      (fun m -> same_minimal (Dfa.of_nfa m));
    qtest ~count:300 "hopcroft equals Moore on dense 256-byte machines"
      dense_nfa_gen (fun m -> same_minimal (Dfa.of_nfa m));
    test "hopcroft equals Moore on literal chains" (fun () ->
        let rng = Random.State.make [| 0xc4a1; 0x5e7 |] in
        List.iter
          (fun states ->
            let w = chain_word rng states in
            let chain = Dfa.of_nfa (Nfa.of_word w) in
            check_int "chain states" states (Dfa.num_states chain);
            check_bool (Printf.sprintf "chain of %d" states) true (same_minimal chain);
            check_int "a chain is minimal" states (Dfa.num_states (Dfa.minimize chain));
            (* two literals sharing their second half: the shared
               suffix states of the subset construction merge *)
            let half = String.sub w (states / 2) (String.length w - (states / 2)) in
            let other = chain_word rng (states / 2) ^ half in
            let fork = Dfa.of_nfa (Ops.union_lang (Nfa.of_word w) (Nfa.of_word other)) in
            let min_fork = Dfa.minimize fork in
            check_bool "fork is not minimal" true
              (Dfa.num_states min_fork < Dfa.num_states fork);
            check_bool (Printf.sprintf "fork of %d" states) true (same_minimal fork))
          [ 261; 521; 1041; 2081 ]);
    qtest ~count:300 "of_word is the minimized chain, state for state" word_gen
      (fun w ->
        Mref.of_dfa (Dfa.of_word w)
        = Mref.of_dfa (Dfa.minimize (Dfa.of_nfa (Nfa.of_word w))));
    qtest ~count:300 "walk lands where stepping lands"
      QCheck2.Gen.(pair nfa_gen word_gen)
      (fun (m, w) ->
        let d = Dfa.of_nfa m in
        let stepped =
          String.fold_left
            (fun q c -> Option.bind q (fun q -> Dfa.step d q c))
            (Some (Dfa.start d)) w
        in
        Dfa.walk d (Dfa.start d) w = stepped);
  ]

let suite =
  [ ("kernels:reference", reference_tests); ("kernels:minimize", minimize_tests) ]
