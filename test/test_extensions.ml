(* Tests for the §3.1.2-style extensions: length restrictions,
   case-mapped input reads (regular preimages), and the character-map
   transducer underneath. *)

open Helpers
module Nfa = Automata.Nfa
module Ast = Webapp.Ast
module Lang_parser = Webapp.Lang_parser
module Eval = Webapp.Eval
module Symexec = Webapp.Symexec
module Attack = Webapp.Attack

let re s = Automata.Store.nfa (Dprle.System.const_of_regex s)

(* [Fst.map_chars f] relabels each edge: its image and preimage are
   the character-map constructions of the case-mapping reads. *)
let image f m = Automata.Fst.(image (map_chars f)) m
let preimage f m = Automata.Fst.(preimage (map_chars f)) m

let relabel_tests =
  [
    test "preimage of lowercase language" (fun () ->
        let m = preimage Char.lowercase_ascii (re "ab") in
        List.iter
          (fun (w, expect) -> check_bool w expect (Nfa.accepts m w))
          [ ("ab", true); ("AB", true); ("aB", true); ("Ab", true);
            ("ba", false); ("abc", false) ]);
    test "image of a language" (fun () ->
        let m = image Char.uppercase_ascii (re "a(b|c)") in
        List.iter
          (fun (w, expect) -> check_bool w expect (Nfa.accepts m w))
          [ ("AB", true); ("AC", true); ("ab", false); ("Ab", false) ]);
    test "preimage through a class" (fun () ->
        (* lower(w) ∈ [a-c]+  ⇔  w ∈ [a-cA-C]+ *)
        let m = preimage Char.lowercase_ascii (re "[a-c]+") in
        check_bool "mixed" true (Nfa.accepts m "aBC");
        check_bool "out of class" false (Nfa.accepts m "aD"));
    test "identity relabel preserves language" (fun () ->
        let m = re "x(yz)*" in
        check_bool "equal" true (lang_equal m (preimage Fun.id m)));
  ]

let relabel_props =
  [
    qtest ~count:80 "preimage is the inverse-image semantics"
      QCheck2.Gen.(
        let* m = Helpers.nfa_gen in
        let* w = Helpers.word_gen in
        return (m, w))
      (fun (m, w) ->
        Nfa.accepts (preimage Char.lowercase_ascii m) w
        = Nfa.accepts m (String.lowercase_ascii w));
    qtest ~count:80 "image contains the map of every sample"
      Helpers.nfa_gen
      (fun m ->
        let img = image Char.uppercase_ascii m in
        List.for_all
          (fun w -> Nfa.accepts img (String.uppercase_ascii w))
          (Nfa.sample_words m ~max_len:5 ~max_count:8));
  ]

(* ------------------------------------------------------------------ *)

let parse = Lang_parser.parse_exn

let strlen_tests =
  [
    test "strlen parses and evaluates" (fun () ->
        let p =
          parse
            {|$x = input("x");
              if (!(strlen($x) <= 3)) { exit; }
              query($x);|}
        in
        check_bool "short passes" false (Eval.run p ~inputs:[ ("x", "ab") ]).exited;
        check_bool "long exits" true (Eval.run p ~inputs:[ ("x", "abcd") ]).exited);
    test "strlen == and >= evaluate" (fun () ->
        let p = parse {|if (strlen(input("x")) == 2) { query("y"); }|} in
        check_int "len 2 queries" 1 (List.length (Eval.queries p ~inputs:[ ("x", "ab") ]));
        check_int "len 3 skips" 0 (List.length (Eval.queries p ~inputs:[ ("x", "abc") ]));
        let p2 = parse {|if (strlen(input("x")) >= 2) { query("y"); }|} in
        check_int "ge" 1 (List.length (Eval.queries p2 ~inputs:[ ("x", "ab") ])));
    test "length check constrains the exploit language" (fun () ->
        (* exploit must contain a quote AND have length exactly 3 *)
        let p =
          parse
            {|$x = input("x");
              if (!(strlen($x) == 3)) { exit; }
              query("SELECT " . $x);|}
        in
        match Symexec.first_exploit ~attack:Attack.contains_quote p with
        | Some [ ("x", w) ] ->
            check_int "length 3" 3 (String.length w);
            check_bool "has quote" true (String.contains w '\'');
            check_bool "fires" true
              (Eval.vulnerable_run ~attack:Attack.contains_quote p
                 ~inputs:[ ("x", w) ])
        | _ -> Alcotest.fail "expected exploit on x");
    test "length window can close the bug" (fun () ->
        (* needs a quote, but only the empty string is allowed *)
        let p =
          parse
            {|$x = input("x");
              if (!(strlen($x) <= 0)) { exit; }
              query("SELECT " . $x);|}
        in
        check_bool "safe" true
          (Symexec.first_exploit ~attack:Attack.contains_quote p = None));
  ]

let case_tests =
  [
    test "strtolower parses and evaluates" (fun () ->
        let p = parse {|$x = strtolower(input("x")); query($x);|} in
        Alcotest.(check (list string))
          "lowered" [ "a'b" ]
          (Eval.queries p ~inputs:[ ("x", "A'B") ]));
    test "filter on lowered value, sink on raw value" (fun () ->
        (* the filter checks strtolower($x) but the query uses $x —
           the solver must pull the constraint back through the case
           map *)
        let p =
          parse
            {|$x = input("x");
              if (!preg_match(/^[a-z']{1,6}$/, strtolower($x))) { exit; }
              query("SELECT " . $x);|}
        in
        match Symexec.first_exploit ~attack:Attack.contains_quote p with
        | Some [ ("x", w) ] ->
            check_bool "fires concretely" true
              (Eval.vulnerable_run ~attack:Attack.contains_quote p
                 ~inputs:[ ("x", w) ])
        | _ -> Alcotest.fail "expected exploit");
    test "conflicting raw and lowered constraints are unsat" (fun () ->
        (* x must be all-uppercase, but lower(x) must equal "ok" and
           the sink needs a quote: impossible *)
        let p =
          parse
            {|$x = input("x");
              if (!preg_match(/^[A-Z]+$/, $x)) { exit; }
              if (!(strtolower($x) == "ok")) { exit; }
              query("SELECT " . $x);|}
        in
        check_bool "safe" true
          (Symexec.first_exploit ~attack:Attack.contains_quote p = None));
    test "upper of lower composes to upper" (fun () ->
        let p = parse {|query(strtoupper(strtolower(input("x"))));|} in
        Alcotest.(check (list string))
          "upper" [ "AB" ]
          (Eval.queries p ~inputs:[ ("x", "aB") ]));
    test "case-mapped exploit is verified end to end" (fun () ->
        (* classic bypass: the filter lowercases before checking a
           blacklist word, but the attack payload is case-insensitive
           SQL anyway — generated input must pass the filter *)
        let p =
          parse
            {|$x = input("x");
              if (strtolower($x) == "drop") { exit; }
              query("SELECT * FROM t WHERE c=" . $x);|}
        in
        match Symexec.first_exploit ~attack:Attack.contains_quote p with
        | Some inputs ->
            check_bool "fires" true
              (Eval.vulnerable_run ~attack:Attack.contains_quote p ~inputs)
        | None -> Alcotest.fail "expected exploit");
  ]

let case_props =
  let program_gen =
    let open QCheck2.Gen in
    let* pat = oneofl [ "/^[a-z]+$/"; "/^[a-z']{1,5}$/"; "/'/" ] in
    let* wrap = oneofl [ `Plain; `Lower; `Upper ] in
    let* len_cap = oneofl [ None; Some 4; Some 8 ] in
    let wrap_expr e =
      match wrap with
      | `Plain -> e
      | `Lower -> Ast.Sanitize (Ast.Lower, e)
      | `Upper -> Ast.Sanitize (Ast.Upper, e)
    in
    let guards =
      [
        Ast.If
          ( Ast.Not
              (Ast.Preg_match
                 (Regex.Parser.parse_pattern_exn pat, wrap_expr (Ast.Input "x"))),
            [ Ast.Exit ],
            [] );
      ]
      @
      match len_cap with
      | None -> []
      | Some n ->
          [ Ast.If (Ast.Not (Ast.Strlen (Ast.Input "x", Ast.Len_le, n)), [ Ast.Exit ], []) ]
    in
    return (guards @ [ Ast.Query (Ast.Concat (Ast.Str "q=", Ast.Input "x")) ])
  in
  [
    qtest ~count:40 "case/length exploits always reproduce concretely"
      program_gen
      (fun program ->
        match Symexec.first_exploit ~attack:Attack.contains_quote program with
        | None -> true
        | Some inputs ->
            Eval.vulnerable_run ~attack:Attack.contains_quote program ~inputs);
  ]

module Fst = Automata.Fst

let fst_tests =
  [
    test "addslashes application" (fun () ->
        check_string "escape" "a\\'b\\\"c\\\\d"
          (Option.get (Fst.apply Fst.addslashes "a'b\"c\\d"));
        check_string "clean" "abc" (Option.get (Fst.apply Fst.addslashes "abc")));
    test "replace_char application" (fun () ->
        check_string "double quotes" "a''b''"
          (Option.get (Fst.apply (Fst.replace_char '\'' "''") "a'b'"));
        check_string "delete" "ab"
          (Option.get (Fst.apply (Fst.replace_char 'x' "") "axbx")));
    test "identity and map" (fun () ->
        check_string "id" "xyz" (Option.get (Fst.apply Fst.identity "xyz"));
        check_string "map" "XYZ"
          (Option.get (Fst.apply (Fst.map_chars Char.uppercase_ascii) "xYz")));
    test "delete_chars" (fun () ->
        check_string "strip digits" "ab"
          (Option.get (Fst.apply (Fst.delete_chars Charset.digit) "a1b2")));
    test "preimage of addslashes" (fun () ->
        (* which inputs make addslashes produce \' ? exactly ' *)
        let target = Nfa.of_word "\\'" in
        let pre = Fst.preimage Fst.addslashes target in
        check_bool "quote" true (Nfa.accepts pre "'");
        check_bool "literal backslash-quote" false (Nfa.accepts pre "\\'");
        check_bool "empty" false (Nfa.accepts pre ""));
    test "preimage: addslashes output never has a bare quote" (fun () ->
        (* {w | addslashes(w) ∈ Σ* ' Σ* with no preceding \ } — the
           escaped output can still CONTAIN quotes, but each is
           preceded by a backslash; inputs mapping into the "bare
           quote" language: none *)
        let bare_quote =
          re "[^\\\\']*'.*" (* a quote not preceded by a backslash at the front *)
        in
        let pre = Fst.preimage Fst.addslashes bare_quote in
        check_bool "unreachable" true (Nfa.is_empty_lang pre));
    test "image of a language" (fun () ->
        let img = Fst.image Fst.addslashes (re "a'|b") in
        check_bool "a\\'" true (Nfa.accepts img "a\\'");
        check_bool "b" true (Nfa.accepts img "b");
        check_bool "a'" false (Nfa.accepts img "a'"));
  ]

let fst_props =
  [
    qtest ~count:60 "preimage is exact inverse-image semantics"
      QCheck2.Gen.(
        let* m = Helpers.nfa_gen in
        let* w = Helpers.word_gen in
        let* which = int_bound 2 in
        return (m, w, which))
      (fun (m, w, which) ->
        let fst =
          match which with
          | 0 -> Fst.addslashes
          | 1 -> Fst.replace_char 'a' "bb"
          | _ -> Fst.delete_chars (Charset.of_string "b")
        in
        match Fst.apply fst w with
        | None -> true
        | Some image_w ->
            Nfa.accepts (Fst.preimage fst m) w = Nfa.accepts m image_w);
    qtest ~count:60 "image contains the map of every sample" Helpers.nfa_gen
      (fun m ->
        let img = Fst.image Fst.addslashes m in
        List.for_all
          (fun w ->
            match Fst.apply Fst.addslashes w with
            | Some w' -> Nfa.accepts img w'
            | None -> true)
          (Nfa.sample_words m ~max_len:5 ~max_count:8));
    qtest ~count:40 "map_chars fst agrees with String.map"
      QCheck2.Gen.(pair Helpers.nfa_gen Helpers.word_gen)
      (fun (m, w) ->
        let lower = Fst.map_chars Char.lowercase_ascii in
        let w' = String.lowercase_ascii w in
        Fst.apply lower w = Some w'
        && ((not (Nfa.accepts m w)) || Nfa.accepts (Fst.image lower m) w'));
  ]

let sanitizer_tests =
  let parse = Lang_parser.parse_exn in
  [
    test "addslashes closes the quote injection" (fun () ->
        (* the classic correct fix: every quote in the input arrives
           escaped, so the query value cannot contain a bare quote *)
        let p =
          parse
            {|$x = input("x");
              query("SELECT * FROM t WHERE a = '" . addslashes($x) . "'");|}
        in
        match (Webapp.Symexec.analyze ~attack:Webapp.Attack.contains_quote p).Webapp.Symexec.candidates with
        | [ q ] -> (
            (* quote-containing outputs DO exist (escaped as \'), so
               the regex approximation still fires... *)
            match (Webapp.Symexec.solve q).Webapp.Symexec.assignment with
            | None -> ()
            | Some a ->
                (* ...but every generated exploit, run concretely,
                   keeps the query parseable: structure preserved *)
                let inputs =
                  Webapp.Symexec.exploit_inputs q a
                  @ List.filter_map
                      (fun i -> if i = "x" then None else Some (i, "a"))
                      (Ast.inputs p)
                in
                let query = List.hd (Eval.queries p ~inputs) in
                check_bool "still parses" true (Sql.Parser.well_formed query))
        | _ -> Alcotest.fail "expected one candidate");
    test "str_replace('','') sanitizer is bypassable when incomplete" (fun () ->
        (* deleting quotes only: classic bypass is impossible for
           quotes, but the filter leaves backslashes alone — here we
           just confirm quote-deletion makes the quote attack unsat *)
        let p =
          parse
            {|$x = input("x");
              query("SELECT * FROM t WHERE a = " . str_replace("'", "", $x));|}
        in
        check_bool "quote attack unsat" true
          (Webapp.Symexec.first_exploit ~attack:Webapp.Attack.contains_quote p = None));
    test "str_replace doubling quotes keeps pairs" (fun () ->
        let p = parse {|query(str_replace("'", "''", input("x")));|} in
        Alcotest.(check (list string))
          "doubled" [ "a''b" ]
          (Eval.queries p ~inputs:[ ("x", "a'b") ]));
    test "sanitized and raw read of the same input" (fun () ->
        (* the filter checks the raw input but the query uses the
           sanitized one: solver must keep the two views consistent *)
        let p =
          parse
            {|$x = input("x");
              if (!preg_match(/^[a-z']{1,4}$/, $x)) { exit; }
              query("SELECT " . str_replace("'", "", $x));|}
        in
        (* after quote deletion the query can never contain a quote *)
        check_bool "safe" true
          (Webapp.Symexec.first_exploit ~attack:Webapp.Attack.contains_quote p = None));
    test "chained sanitizers compose" (fun () ->
        let p = parse {|query(addslashes(strtolower(input("x"))));|} in
        Alcotest.(check (list string))
          "lower then slash" [ "a\\'b" ]
          (Eval.queries p ~inputs:[ ("x", "A'B") ]));
  ]

let suite =
  [
    ("relabel:unit", relabel_tests);
    ("relabel:props", relabel_props);
    ("fst:unit", fst_tests);
    ("fst:props", fst_props);
    ("extensions:strlen", strlen_tests);
    ("extensions:case", case_tests);
    ("extensions:sanitizers", sanitizer_tests);
    ("extensions:props", case_props);
  ]
