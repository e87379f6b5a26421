(* Randomized cross-checks for the hot-path automata rewrites: the
   bitset BFS family, the on-the-fly subset check, the provenance
   product, and the single-pass [repeat] are each compared against
   [Kernel_reference]'s oracles on a deterministic, seeded stream of
   random machines. QCheck is deliberately not used here — the stream
   must be identical on every run so a failure reproduces
   byte-for-byte. *)

open Helpers
module Nfa = Automata.Nfa
module Ops = Automata.Ops
module Lang = Automata.Lang
module Ref = Kernel_reference
module Dfa = Automata.Dfa
module SS = Nfa.StateSet

let cases = 500

let alphabet = [| 'a'; 'b'; 'c'; '0'; '1'; '\'' |]

(* Mirrors the QCheck generator in [Helpers]: small ε-NFAs over a
   6-character alphabet, with occasional interval labels; start and
   final are the first two states and the language may be empty. *)
let rand_nfa rng =
  let n = 2 + Random.State.int rng 6 in
  let b = Nfa.Builder.create () in
  let first = Nfa.Builder.add_states b n in
  let char_edges = Random.State.int rng 13 in
  for _ = 1 to char_edges do
    let src = Random.State.int rng n and dst = Random.State.int rng n in
    let c = alphabet.(Random.State.int rng (Array.length alphabet)) in
    let cs =
      if Random.State.bool rng then
        Charset.range c (Char.chr (min 255 (Char.code c + 2)))
      else Charset.singleton c
    in
    Nfa.Builder.add_trans b (first + src) cs (first + dst)
  done;
  let eps_edges = Random.State.int rng 4 in
  for _ = 1 to eps_edges do
    let src = Random.State.int rng n and dst = Random.State.int rng n in
    Nfa.Builder.add_eps b (first + src) (first + dst)
  done;
  Nfa.Builder.finish b ~start:first ~final:(first + 1)

(* Few states, many overlapping edges: dense product cells, where
   each state pair meets many label pairs. *)
let rand_dense_nfa rng =
  let n = 2 + Random.State.int rng 2 in
  let b = Nfa.Builder.create () in
  let first = Nfa.Builder.add_states b n in
  let char_edges = 8 + Random.State.int rng 16 in
  for _ = 1 to char_edges do
    let src = Random.State.int rng n and dst = Random.State.int rng n in
    let c = alphabet.(Random.State.int rng (Array.length alphabet)) in
    Nfa.Builder.add_trans b (first + src)
      (Charset.range c (Char.chr (min 255 (Char.code c + Random.State.int rng 4))))
      (first + dst)
  done;
  Nfa.Builder.finish b ~start:first ~final:(first + 1)

let rand_state_set rng n =
  let set = ref SS.empty in
  for q = 0 to n - 1 do
    if Random.State.bool rng then set := SS.add q !set
  done;
  !set

let check_set_eq what i expected actual =
  if not (SS.equal expected actual) then
    Alcotest.failf "%s diverged from reference on case %d" what i

let bfs_tests =
  [
    test "bitset BFS family agrees with the StateSet reference" (fun () ->
        let rng = Random.State.make [| 0xb1; 0x5e7 |] in
        for i = 1 to cases do
          let m = rand_nfa rng in
          let n = Nfa.num_states m in
          let q0 = Random.State.int rng n in
          let set = rand_state_set rng n in
          check_set_eq "eps_closure" i
            (Ref.eps_closure m set)
            (Nfa.eps_closure m set);
          check_bool "is_empty_lang" (Ref.is_empty_lang m) (Nfa.is_empty_lang m);
          (* the flag searches answer the reference's membership
             questions *)
          let check_flags what flags expected =
            List.iter
              (fun q -> check_bool what (SS.mem q expected) (Nfa.Flags.mem flags q))
              (Nfa.states m)
          in
          check_flags "reachable_flags" (Nfa.reachable_flags m q0)
            (Ref.reachable_from m q0);
          check_flags "coreachable_flags" (Nfa.coreachable_flags m q0)
            (Ref.coreachable_to m q0);
          (* the hashed ε-index agrees with the adjacency lists *)
          let p = Random.State.int rng n and q = Random.State.int rng n in
          check_bool "has_eps_edge"
            (List.mem q (Nfa.eps_transitions_from m p))
            (Nfa.has_eps_edge m p q)
        done);
  ]

let subset_tests =
  [
    test "on-the-fly subset agrees with determinize-both" (fun () ->
        let rng = Random.State.make [| 0x5b; 0x5e7 |] in
        for i = 1 to cases do
          let a = rand_nfa rng in
          let b = rand_nfa rng in
          let expected = Ref.subset a b in
          if lang_subset a b <> expected then
            Alcotest.failf "subset diverged from reference on case %d" i;
          (match Lang.counterexample a b with
          | Some w ->
              check_bool "cex in L(a)" true (Nfa.accepts a w);
              check_bool "cex not in L(b)" false (Nfa.accepts b w)
          | None ->
              if not expected then
                Alcotest.failf "missing counterexample on case %d" i);
          if lang_equal a b <> Ref.equal a b then
            Alcotest.failf "equal diverged from reference on case %d" i
        done);
  ]

let intersect_tests =
  [
    test "product matches the DFA oracle and keeps provenance" (fun () ->
        let rng = Random.State.make [| 0x1a7; 0x5e7 |] in
        for i = 1 to cases do
          (* alternate sparse and dense operands *)
          let gen = if i mod 2 = 0 then rand_dense_nfa else rand_nfa in
          let m1 = gen rng in
          let m2 = gen rng in
          let p = Ops.intersect m1 m2 in
          let oracle = Dfa.inter (Dfa.of_nfa m1) (Dfa.of_nfa m2) in
          if not (Ref.dfa_equiv (Dfa.of_nfa p.Ops.machine) oracle) then
            Alcotest.failf "intersect language diverged on case %d" i;
          List.iter
            (fun q ->
              if p.Ops.state_of_pair (p.Ops.pair_of q) <> Some q then
                Alcotest.failf "intersect provenance diverged on case %d" i)
            (Nfa.states p.Ops.machine);
          if
            p.Ops.pair_of (Nfa.start p.Ops.machine) <> (Nfa.start m1, Nfa.start m2)
            || p.Ops.pair_of (Nfa.final p.Ops.machine)
               <> (Nfa.final m1, Nfa.final m2)
          then Alcotest.failf "intersect endpoints diverged on case %d" i
        done);
  ]

let repeat_tests =
  [
    test "single-pass repeat preserves the reference language" (fun () ->
        let rng = Random.State.make [| 0x4e7; 0x5e7 |] in
        for i = 1 to 200 do
          let m = rand_nfa rng in
          let min_count = Random.State.int rng 4 in
          let max_count =
            if Random.State.bool rng then None
            else Some (min_count + Random.State.int rng 4)
          in
          let fast = Ops.repeat m ~min_count ~max_count in
          let slow = Ref.repeat m ~min_count ~max_count in
          if not (Ref.equal fast slow) then
            Alcotest.failf "repeat language diverged on case %d (min=%d max=%s)"
              i min_count
              (match max_count with None -> "inf" | Some k -> string_of_int k);
          check_bool "not bigger than reference" true
            (Nfa.num_states fast <= Nfa.num_states slow)
        done);
  ]

let store_tests =
  [
    test "interning is sound on random machine pairs" (fun () ->
        let module Store = Automata.Store in
        let rng = Random.State.make [| 0x570; 0x5e7 |] in
        for i = 1 to cases do
          let m1 = rand_nfa rng in
          let m2 = rand_nfa rng in
          let h1 = Store.intern m1 and h2 = Store.intern m2 in
          (* key collision must mean language equality (the converse
             is not promised: different machines may hash apart) *)
          if Store.id h1 = Store.id h2 && not (Ref.equal m1 m2) then
            Alcotest.failf "intern merged different languages on case %d" i;
          (* the representative a handle answers with is language-equal
             to the machine interned *)
          if not (Ref.equal m1 (Store.nfa h1)) then
            Alcotest.failf "representative changed the language on case %d" i;
          if Store.subset h1 h2 <> Ref.subset m1 m2 then
            Alcotest.failf "store subset diverged from reference on case %d" i;
          if
            Store.disjoint h1 h2
            <> Ref.is_empty_lang (Ops.inter_lang m1 m2)
          then Alcotest.failf "store disjoint diverged on case %d" i;
          if
            not
              (Ref.equal
                 (Store.nfa (Store.inter_lang h1 h2))
                 (Ops.inter_lang m1 m2))
          then Alcotest.failf "store inter_lang diverged on case %d" i
        done);
  ]

let suite =
  [
    ("crosscheck:bfs", bfs_tests);
    ("crosscheck:subset", subset_tests);
    ("crosscheck:intersect", intersect_tests);
    ("crosscheck:repeat", repeat_tests);
    ("crosscheck:store", store_tests);
  ]
