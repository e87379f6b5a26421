open Helpers
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Ops = Automata.Ops
module Lang = Automata.Lang
module Ref = Kernel_reference

let ab = Nfa.of_word "ab"
let a = Nfa.of_charset (Charset.singleton 'a')

let unit_tests =
  [
    test "empty_lang accepts nothing" (fun () ->
        check_bool "eps" false (Nfa.accepts Nfa.empty_lang "");
        check_bool "a" false (Nfa.accepts Nfa.empty_lang "a");
        check_bool "is_empty" true (Nfa.is_empty_lang Nfa.empty_lang));
    test "epsilon_lang accepts only eps" (fun () ->
        check_bool "eps" true (Nfa.accepts Nfa.epsilon_lang "");
        check_bool "a" false (Nfa.accepts Nfa.epsilon_lang "a"));
    test "of_word" (fun () ->
        check_bool "ab" true (Nfa.accepts ab "ab");
        check_bool "a" false (Nfa.accepts ab "a");
        check_bool "abc" false (Nfa.accepts ab "abc");
        check_bool "eps" false (Nfa.accepts ab ""));
    test "of_word empty string" (fun () ->
        let m = Nfa.of_word "" in
        check_bool "eps" true (Nfa.accepts m "");
        check_bool "x" false (Nfa.accepts m "x"));
    test "sigma_star accepts everything" (fun () ->
        check_bool "eps" true (Nfa.accepts Nfa.sigma_star "");
        check_bool "junk" true (Nfa.accepts Nfa.sigma_star "q!\000xyz"));
    test "of_charset" (fun () ->
        let d = Nfa.of_charset Charset.digit in
        check_bool "7" true (Nfa.accepts d "7");
        check_bool "a" false (Nfa.accepts d "a");
        check_bool "77" false (Nfa.accepts d "77"));
    test "concat bridge is the only cross edge" (fun () ->
        let r = Ops.concat ab a in
        check_bool "aba" true (Nfa.accepts r.machine "aba");
        check_bool "ab" false (Nfa.accepts r.machine "ab");
        let src, dst = r.bridge in
        check_bool "bridge is eps edge" true (Nfa.has_eps_edge r.machine src dst);
        check_int "bridge src is left final" (r.left_embed (Nfa.final ab)) src;
        check_int "bridge dst is right start" (r.right_embed (Nfa.start a)) dst);
    test "union" (fun () ->
        let u = Ops.union_lang ab a in
        check_bool "ab" true (Nfa.accepts u "ab");
        check_bool "a" true (Nfa.accepts u "a");
        check_bool "b" false (Nfa.accepts u "b"));
    test "star" (fun () ->
        let s = Ops.star a in
        check_bool "eps" true (Nfa.accepts s "");
        check_bool "aaa" true (Nfa.accepts s "aaa");
        check_bool "ab" false (Nfa.accepts s "ab"));
    test "plus requires one" (fun () ->
        let p = Ops.plus a in
        check_bool "eps" false (Nfa.accepts p "");
        check_bool "a" true (Nfa.accepts p "a");
        check_bool "aa" true (Nfa.accepts p "aa"));
    test "opt" (fun () ->
        let o = Ops.opt a in
        check_bool "eps" true (Nfa.accepts o "");
        check_bool "a" true (Nfa.accepts o "a");
        check_bool "aa" false (Nfa.accepts o "aa"));
    test "repeat {2,4}" (fun () ->
        let r = Ops.repeat a ~min_count:2 ~max_count:(Some 4) in
        List.iter
          (fun (w, expect) -> check_bool w expect (Nfa.accepts r w))
          [ ("", false); ("a", false); ("aa", true); ("aaa", true);
            ("aaaa", true); ("aaaaa", false) ]);
    test "repeat {3,}" (fun () ->
        let r = Ops.repeat a ~min_count:3 ~max_count:None in
        check_bool "aa" false (Nfa.accepts r "aa");
        check_bool "aaa" true (Nfa.accepts r "aaa");
        check_bool "6" true (Nfa.accepts r "aaaaaa"));
    test "intersect provenance" (fun () ->
        let r = Ops.intersect (Ops.star a) (Ops.plus a) in
        check_bool "a" true (Nfa.accepts r.machine "a");
        check_bool "eps" false (Nfa.accepts r.machine "");
        (* every product state projects back consistently *)
        List.iter
          (fun q ->
            let p1, p2 = r.pair_of q in
            match r.state_of_pair (p1, p2) with
            | Some q' -> check_int "roundtrip" q q'
            | None -> Alcotest.fail "pair lookup failed")
          (Nfa.states r.machine));
    test "intersect of disjoint languages is empty" (fun () ->
        let m = Ops.inter_lang ab a in
        check_bool "empty" true (Nfa.is_empty_lang m));
    test "shortest_word" (fun () ->
        check_string "ab" "ab" (Option.get (Nfa.shortest_word ab));
        check_bool "none" true (Nfa.shortest_word Nfa.empty_lang = None);
        check_string "eps" "" (Option.get (Nfa.shortest_word Nfa.sigma_star)));
    test "induce_from_final changes accepted language" (fun () ->
        let r = Ops.concat ab a in
        let src, dst = r.bridge in
        let left = Nfa.induce_from_final r.machine src in
        let right = Nfa.induce_from_start r.machine dst in
        check_bool "left ab" true (Nfa.accepts left "ab");
        check_bool "left aba" false (Nfa.accepts left "aba");
        check_bool "right a" true (Nfa.accepts right "a"));
    test "trim preserves language and shrinks" (fun () ->
        let bloated = Ops.union_lang (Ops.inter_lang ab a) ab in
        let trimmed, _ = Nfa.trim bloated in
        check_bool "same lang" true (lang_equal bloated trimmed);
        check_bool "not bigger" true
          (Nfa.num_states trimmed <= Nfa.num_states bloated));
    test "sample_words shortest first" (fun () ->
        let words = Nfa.sample_words (Ops.star a) ~max_len:4 ~max_count:3 in
        Alcotest.(check (list string)) "prefix" [ ""; "a"; "aa" ] words);
    test "builder dedups repeated edges" (fun () ->
        let b = Nfa.Builder.create () in
        let first = Nfa.Builder.add_states b 2 in
        for _ = 1 to 5 do
          Nfa.Builder.add_trans b first (Charset.singleton 'a') (first + 1);
          Nfa.Builder.add_eps b first (first + 1)
        done;
        (* a distinct label on the same edge must survive *)
        Nfa.Builder.add_trans b first (Charset.singleton 'b') (first + 1);
        let m = Nfa.Builder.finish b ~start:first ~final:(first + 1) in
        check_int "char edges" 2 (List.length (Nfa.char_transitions m first));
        check_int "eps edges" 1 (List.length (Nfa.eps_transitions_from m first));
        check_bool "a" true (Nfa.accepts m "a");
        check_bool "b" true (Nfa.accepts m "b"));
    test "repeat builds linearly many states" (fun () ->
        let k = 12 in
        let bounded = Ops.repeat ab ~min_count:k ~max_count:(Some (2 * k)) in
        let unbounded = Ops.repeat ab ~min_count:k ~max_count:None in
        (* one copy of |ab| per mandatory/optional repetition plus the
           fresh start/final — far below the old quadratic blowup *)
        let copy = Nfa.num_states ab in
        check_int "bounded states" ((2 * k * copy) + 2) (Nfa.num_states bounded);
        check_int "unbounded states" (((k + 1) * copy) + 2)
          (Nfa.num_states unbounded));
  ]

let dfa_tests =
  [
    test "determinize preserves membership" (fun () ->
        let m = Ops.union_lang (Ops.star ab) (Ops.plus a) in
        let d = Dfa.of_nfa m in
        List.iter
          (fun w -> check_bool w (Nfa.accepts m w) (Ref.dfa_accepts d w))
          [ ""; "a"; "ab"; "abab"; "aa"; "aba"; "b" ]);
    test "complement flips membership" (fun () ->
        let d = Dfa.complement (Dfa.of_nfa ab) in
        check_bool "ab" false (Ref.dfa_accepts d "ab");
        check_bool "x" true (Ref.dfa_accepts d "x");
        check_bool "eps" true (Ref.dfa_accepts d ""));
    test "minimize sigma-star to one state" (fun () ->
        let d = Dfa.minimize (Dfa.of_nfa Nfa.sigma_star) in
        check_int "states" 1 (Dfa.num_states d));
    test "minimize empty language" (fun () ->
        let d = Dfa.minimize (Dfa.of_nfa Nfa.empty_lang) in
        check_bool "empty" true (Ref.dfa_is_empty d));
    test "equiv distinguishes star vs plus" (fun () ->
        let star_d = Dfa.of_nfa (Ops.star a) in
        let plus_d = Dfa.of_nfa (Ops.plus a) in
        check_bool "differ" false (Ref.dfa_equiv star_d plus_d);
        check_bool "self" true (Ref.dfa_equiv star_d star_d));
    test "subset star/plus" (fun () ->
        let star_d = Dfa.of_nfa (Ops.star a) in
        let plus_d = Dfa.of_nfa (Ops.plus a) in
        check_bool "plus in star" true (Ref.dfa_subset plus_d star_d);
        check_bool "star not in plus" false (Ref.dfa_subset star_d plus_d));
    test "counterexample is the missing eps" (fun () ->
        let star_d = Dfa.of_nfa (Ops.star a) in
        let plus_d = Dfa.of_nfa (Ops.plus a) in
        check_string "eps" "" (Option.get (Ref.dfa_counterexample star_d plus_d)));
    test "to_nfa round trip" (fun () ->
        let m = Ops.union_lang ab (Ops.star a) in
        let back = Dfa.to_nfa (Dfa.of_nfa m) in
        check_bool "equal" true (lang_equal m back));
  ]

let prop_tests =
  let two_nfas_and_word =
    QCheck2.Gen.(
      let* m1 = nfa_gen in
      let* m2 = nfa_gen in
      let* w =
        oneof [ word_gen; word_for m1; word_for m2 ]
      in
      return (m1, m2, w))
  in
  [
    qtest ~count:100 "determinization preserves language"
      QCheck2.Gen.(
        let* m = nfa_gen in
        let* w = word_for m in
        return (m, w))
      (fun (m, w) -> Nfa.accepts m w = Ref.dfa_accepts (Dfa.of_nfa m) w);
    qtest ~count:100 "minimize preserves language"
      QCheck2.Gen.(
        let* m = nfa_gen in
        let* w = word_for m in
        return (m, w))
      (fun (m, w) ->
        Nfa.accepts m w = Ref.dfa_accepts (Dfa.minimize (Dfa.of_nfa m)) w);
    qtest ~count:60 "hopcroft and brzozowski minimization agree"
      nfa_gen
      (fun m ->
        let d = Dfa.of_nfa m in
        let m1 = Dfa.minimize d and m2 = Minimize_reference.brzozowski d in
        Ref.dfa_equiv m1 (Minimize_reference.to_dfa m2)
        && Dfa.num_states m1 = m2.Minimize_reference.n);
    qtest ~count:100 "product is intersection" two_nfas_and_word
      (fun (m1, m2, w) ->
        Nfa.accepts (Ops.inter_lang m1 m2) w
        = (Nfa.accepts m1 w && Nfa.accepts m2 w));
    qtest ~count:100 "union is union" two_nfas_and_word (fun (m1, m2, w) ->
        Nfa.accepts (Ops.union_lang m1 m2) w
        = (Nfa.accepts m1 w || Nfa.accepts m2 w));
    qtest ~count:100 "concat contains pairwise products" two_nfas_and_word
      (fun (m1, m2, _) ->
        match (Nfa.shortest_word m1, Nfa.shortest_word m2) with
        | Some w1, Some w2 -> Nfa.accepts (Ops.concat_lang m1 m2) (w1 ^ w2)
        | _ -> true);
    qtest ~count:100 "trim preserves language" two_nfas_and_word
      (fun (m, _, w) ->
        let trimmed, _ = Nfa.trim m in
        Nfa.accepts m w = Nfa.accepts trimmed w);
    qtest ~count:100 "complement is complement" two_nfas_and_word
      (fun (m, _, w) ->
        Ref.dfa_accepts (Dfa.complement (Dfa.of_nfa m)) w = not (Nfa.accepts m w));
    qtest ~count:60 "subset oracle agrees with witnesses" two_nfas_and_word
      (fun (m1, m2, _) ->
        let d1 = Dfa.of_nfa m1 and d2 = Dfa.of_nfa m2 in
        match Ref.dfa_counterexample d1 d2 with
        | None -> lang_subset m1 m2
        | Some w -> Nfa.accepts m1 w && not (Nfa.accepts m2 w));
    qtest ~count:60 "shortest_word is accepted and minimal-length"
      nfa_gen
      (fun m ->
        match Nfa.shortest_word m with
        | None -> Nfa.is_empty_lang m
        | Some w ->
            Nfa.accepts m w
            && List.for_all
                 (fun s -> String.length s >= String.length w)
                 (Nfa.sample_words m ~max_len:6 ~max_count:5));
    qtest ~count:60 "sample words are all accepted" nfa_gen (fun m ->
        List.for_all (Nfa.accepts m) (Nfa.sample_words m ~max_len:6 ~max_count:10));
    qtest ~count:60 "lang equal reflexive via ops" nfa_gen (fun m ->
        lang_equal m (Ops.union_lang m m));
    qtest ~count:40 "compact preserves language" nfa_gen (fun m ->
        lang_equal m (Lang.compact m));
  ]

let suite =
  [
    ("nfa:unit", unit_tests);
    ("dfa:unit", dfa_tests);
    ("automata:props", prop_tests);
  ]
