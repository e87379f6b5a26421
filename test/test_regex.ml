open Helpers
module Ast = Regex.Ast
module Parser = Regex.Parser
module Compile = Regex.Compile
module Derivative = Regex.Derivative
module State_elim = Regex.State_elim
module Nfa = Automata.Nfa
module Lang = Automata.Lang

let parse = Parser.parse_exn

let matches_via_nfa re w = Nfa.accepts (Compile.to_nfa re) w

let check_matches re cases =
  let compiled = Compile.to_nfa (parse re) in
  List.iter
    (fun (w, expect) ->
      check_bool (Printf.sprintf "%s =~ /%s/" w re) expect (Nfa.accepts compiled w))
    cases

let parser_tests =
  [
    test "literal word" (fun () ->
        check_matches "abc" [ ("abc", true); ("ab", false); ("abcd", false) ]);
    test "alternation" (fun () ->
        check_matches "ab|cd" [ ("ab", true); ("cd", true); ("ad", false) ]);
    test "star binds tighter than seq" (fun () ->
        check_matches "ab*" [ ("a", true); ("abbb", true); ("abab", false) ]);
    test "group changes binding" (fun () ->
        check_matches "(ab)*" [ ("", true); ("abab", true); ("aba", false) ]);
    test "non-capturing group syntax" (fun () ->
        check_matches "(?:ab)+" [ ("ab", true); ("abab", true); ("", false) ]);
    test "empty group is epsilon" (fun () ->
        check_matches "()" [ ("", true); ("a", false) ]);
    test "class with range" (fun () ->
        check_matches "[a-c]+" [ ("abc", true); ("d", false); ("", false) ]);
    test "negated class" (fun () ->
        check_matches "[^a-c]" [ ("d", true); ("a", false); ("'", true) ]);
    test "class with literal dash" (fun () ->
        check_matches "[a-]" [ ("a", true); ("-", true); ("b", false) ]);
    test "digit escape" (fun () ->
        check_matches "\\d+" [ ("123", true); ("12a", false); ("", false) ]);
    test "word and space escapes" (fun () ->
        check_matches "\\w+\\s\\w+"
          [ ("ab cd", true); ("a\tb", true); ("ab", false) ]);
    test "negated escapes" (fun () ->
        check_matches "\\D\\W\\S" [ ("1!x", false); ("!!x", true); ("a!x", true) ]);
    test "hex escape" (fun () -> check_matches "\\x41+" [ ("AAA", true); ("B", false) ]);
    test "escaped metacharacters" (fun () ->
        check_matches "\\(\\)\\*\\+\\?\\." [ ("()*+?.", true); ("()*+?x", false) ]);
    test "dot is any byte" (fun () ->
        check_matches "." [ ("a", true); ("\000", true); ("\n", true); ("ab", false) ]);
    test "counted repetition" (fun () ->
        check_matches "a{3}" [ ("aaa", true); ("aa", false); ("aaaa", false) ]);
    test "bounded repetition" (fun () ->
        check_matches "a{1,3}"
          [ ("", false); ("a", true); ("aaa", true); ("aaaa", false) ]);
    test "unbounded repetition" (fun () ->
        check_matches "a{2,}" [ ("a", false); ("aa", true); ("aaaaa", true) ]);
    test "quantifier stacking" (fun () ->
        check_matches "(a{2}){2}" [ ("aaaa", true); ("aaa", false) ]);
    test "class escapes inside class" (fun () ->
        check_matches "[\\d_]+" [ ("12_3", true); ("a", false) ]);
    test "parse errors carry positions" (fun () ->
        (match Parser.parse "ab(" with
        | Error { position; _ } -> check_int "pos" 3 position
        | Ok _ -> Alcotest.fail "expected error");
        List.iter
          (fun s ->
            match Parser.parse s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "expected parse error for %S" s)
          [ "*a"; "a{2,1}"; "[abc"; "a|b)"; "\\x4"; "a{,3}"; "mid^dle"; "do$llar" ]);
    test "empty pattern matches only empty string" (fun () ->
        check_matches "" [ ("", true); ("a", false) ]);
  ]

let pattern_tests =
  let accepts p w = Nfa.accepts (Compile.pattern_to_nfa (Parser.parse_pattern_exn p)) w in
  [
    test "unanchored pattern matches substrings" (fun () ->
        check_bool "middle" true (accepts "/bc/" "abcd");
        check_bool "absent" false (accepts "/bc/" "acbd"));
    test "paper's faulty filter /[\\d]+$/" (fun () ->
        (* the check of Fig. 1 line 2: missing ^ lets arbitrary
           prefixes through as long as the string ends with digits *)
        check_bool "digits pass" true (accepts "/[\\d]+$/" "42");
        check_bool "attack passes filter" true
          (accepts "/[\\d]+$/" "' OR 1=1 ; DROP news --9");
        check_bool "non-digit tail fails" false (accepts "/[\\d]+$/" "9a"));
    test "corrected filter /^[\\d]+$/" (fun () ->
        check_bool "digits pass" true (accepts "/^[\\d]+$/" "42");
        check_bool "attack blocked" false
          (accepts "/^[\\d]+$/" "' OR 1=1 ; DROP news --9"));
    test "start-only anchor" (fun () ->
        check_bool "prefix" true (accepts "/^ab/" "abxyz");
        check_bool "not prefix" false (accepts "/^ab/" "xab"));
    test "delimiters are optional" (fun () ->
        check_bool "bare" true (accepts "b" "abc"));
    test "escaped dollar is a literal" (fun () ->
        let p = Parser.parse_pattern_exn "/a\\$$/" in
        check_bool "anchored" true p.anchored_end;
        check_bool "a$" true (Nfa.accepts (Compile.pattern_to_nfa p) "xa$"));
    test "pattern_matches agrees with compiled pattern" (fun () ->
        let p = Parser.parse_pattern_exn "/b+c$/" in
        List.iter
          (fun w ->
            check_bool w
              (Nfa.accepts (Compile.pattern_to_nfa p) w)
              (Derivative.pattern_matches p w))
          [ "abc"; "bc"; "c"; "abcd"; "" ]);
  ]

let derivative_tests =
  [
    test "nullable" (fun () ->
        check_bool "eps" true (Derivative.nullable Ast.Epsilon);
        check_bool "star" true (Derivative.nullable (parse "a*"));
        check_bool "plus" false (Derivative.nullable (parse "a+"));
        check_bool "a{0,3}" true (Derivative.nullable (parse "a{0,3}"));
        check_bool "alt" true (Derivative.nullable (parse "a|"));
        check_bool "Σ* is nullable" true
          (Derivative.nullable (Ast.Star Ast.any)));
    test "deriv of char" (fun () ->
        check_bool "match" true (Derivative.matches (parse "abc") "abc");
        check_bool "no match" false (Derivative.matches (parse "abc") "abd"));
    test "deriv of repeat" (fun () ->
        check_bool "a{2,4}: aaa" true (Derivative.matches (parse "a{2,4}") "aaa");
        check_bool "a{2,4}: a" false (Derivative.matches (parse "a{2,4}") "a");
        check_bool "a{2,4}: 5" false (Derivative.matches (parse "a{2,4}") "aaaaa"));
  ]

(* Random regex ASTs, built with the smart constructors so they stay
   in normal form. *)
let ast_gen : Ast.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        return Ast.Epsilon;
        map (fun c -> Ast.Chars (Charset.singleton c)) Helpers.small_char;
        oneofl
          [ Ast.Chars Charset.digit; Ast.Chars (Charset.of_string "ab'");
            Ast.any; Ast.Chars (Charset.range 'a' 'c') ];
      ]
  in
  let rec go n =
    if n <= 1 then leaf
    else
      let sub = go (n / 2) in
      oneof
        [
          leaf;
          map2 Ast.seq sub sub;
          map2 Ast.alt sub sub;
          map Ast.star sub;
          map Ast.plus sub;
          map Ast.opt sub;
          map2 (fun r lo -> Ast.repeat r lo (Some (lo + 2))) sub (int_bound 2);
        ]
  in
  sized_size (int_range 1 14) go

let prop_tests =
  let re_and_words =
    QCheck2.Gen.(
      let* re = ast_gen in
      let* words =
        let nfa_samples = Nfa.sample_words (Compile.to_nfa re) ~max_len:6 ~max_count:5 in
        let* random_words = list_size (int_range 1 5) word_gen in
        return (nfa_samples @ random_words)
      in
      return (re, words))
  in
  [
    qtest ~count:150 "thompson and derivative matchers agree" re_and_words
      (fun (re, words) ->
        List.for_all (fun w -> matches_via_nfa re w = Derivative.matches re w) words);
    qtest ~count:150 "print/parse round trip preserves language" ast_gen
      (fun re ->
        match Parser.parse (Ast.to_string re) with
        | Error _ -> false
        | Ok re' -> Lang.equal (Compile.to_nfa re) (Compile.to_nfa re'));
    qtest ~count:80 "state elimination preserves language" Helpers.nfa_gen
      (fun m -> Lang.equal m (Compile.to_nfa (State_elim.to_regex m)));
    qtest ~count:80 "state elimination of compiled regex" ast_gen (fun re ->
        let m = Compile.to_nfa re in
        Lang.equal m (Compile.to_nfa (State_elim.to_regex m)));
    qtest ~count:150 "nullable agrees with empty-string acceptance" ast_gen
      (fun re -> Derivative.nullable re = matches_via_nfa re "");
    qtest ~count:100 "smart constructors preserve derivative semantics"
      QCheck2.Gen.(
        let* a = ast_gen in
        let* b = ast_gen in
        let* w = word_gen in
        return (a, b, w))
      (fun (a, b, w) ->
        Derivative.matches (Ast.alt a b) w
        = (Derivative.matches a w || Derivative.matches b w));
  ]

let simplify_tests =
  let simp s = Ast.to_string (Regex.Simplify.simplify (parse s)) in
  [
    test "quantifier fusion" (fun () ->
        check_string "aa*" "a+" (simp "aa*");
        check_string "a*a*" "a*" (simp "a*a*");
        check_string "a{1,2}a{0,3}" "a{1,5}" (simp "a{1,2}a{0,3}");
        check_string "a?a" "a{1,2}" (simp "a?a"));
    test "alternation cleanup" (fun () ->
        check_string "dedup" "ab" (simp "ab|ab");
        check_string "chars merge" "[a-c]" (simp "a|b|c");
        check_string "eps branch" "(?:ab)?" (simp "ab|()"));
    test "factoring" (fun () ->
        check_string "head" "a[bc]" (simp "ab|ac");
        check_string "tail" "[bc]a" (simp "ba|ca"));
    test "prune subsumed alternative" (fun () ->
        let pruned = Regex.Pretty.prune_alternatives (parse "ab|a.*") in
        check_bool "language kept" true
          (Lang.equal (Compile.to_nfa pruned) (Compile.to_nfa (parse "a.*")));
        check_bool "smaller" true (Ast.size pruned < Ast.size (parse "ab|a.*")));
    test "pretty on a machine" (fun () ->
        let m = Compile.to_nfa (parse "x(yy|yyyy)") in
        let printed = Regex.Pretty.pretty m in
        match Parser.parse printed with
        | Ok re -> check_bool "language" true (Lang.equal m (Compile.to_nfa re))
        | Error _ -> Alcotest.failf "unparseable output %S" printed);
  ]

let simplify_props =
  [
    qtest ~count:150 "simplify preserves language" ast_gen (fun re ->
        Lang.equal (Compile.to_nfa re) (Compile.to_nfa (Regex.Simplify.simplify re)));
    qtest ~count:150 "simplify never grows" ast_gen (fun re ->
        Ast.size (Regex.Simplify.simplify re) <= Ast.size re);
    qtest ~count:60 "prune_alternatives preserves language" ast_gen (fun re ->
        Lang.equal (Compile.to_nfa re)
          (Compile.to_nfa (Regex.Pretty.prune_alternatives re)));
    qtest ~count:60 "pretty output reparses to the same language"
      Helpers.nfa_gen
      (fun m ->
        match Parser.parse (Regex.Pretty.pretty m) with
        | Ok re -> Lang.equal m (Compile.to_nfa re)
        | Error _ -> false);
  ]

(* Long literals, unions of them, and starred ones: the chains whose
   elimination the live degree counts made quadratic. *)
let chain_gen : Automata.Nfa.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let module Ops = Automata.Ops in
  let literal =
    let* len = int_range 1 160 in
    let* w = string_size ~gen:small_char (return len) in
    return (Automata.Nfa.of_word w)
  in
  let* a = literal in
  let* b = literal in
  oneofl [ a; Ops.union_lang a b; Ops.concat_lang (Ops.star a) b ]

let state_elim_props =
  let same m = Ast.equal (State_elim.to_regex m) (State_elim_reference.to_regex m) in
  [
    qtest ~count:300 "live degrees pick as the full recount does" Helpers.nfa_gen same;
    qtest ~count:30 "live degrees pick as the full recount does on chains" chain_gen same;
  ]

let suite =
  [
    ("regex:parser", parser_tests);
    ("regex:patterns", pattern_tests);
    ("regex:derivative", derivative_tests);
    ("regex:simplify", simplify_tests);
    ("regex:props", prop_tests);
    ("regex:simplify-props", simplify_props);
    ("regex:state-elim", state_elim_props);
  ]
