open Helpers
module Ast = Webapp.Ast
module Lang_parser = Webapp.Lang_parser
module Eval = Webapp.Eval
module Symexec = Webapp.Symexec
module Attack = Webapp.Attack
module Nfa = Automata.Nfa
module Semantics = Webapp.Semantics
module Store = Automata.Store

(* The paper's Fig. 1 program, in mini-PHP. *)
let utopia_source =
  {|
// Utopia News Pro fragment (Fig. 1 of the paper)
$newsid = input("posted_newsid");
if (!preg_match(/[\d]+$/, $newsid)) {
  echo "Invalid article news ID.";
  exit;
}
$newsid = "nid_" . $newsid;
query("SELECT * FROM news WHERE newsid=" . $newsid);
|}

let utopia = Lang_parser.parse_exn utopia_source

let fixed_utopia =
  Lang_parser.parse_exn
    (String.concat ""
       [
         {|$newsid = input("posted_newsid");
           if (!preg_match(/^[\d]+$/, $newsid)) { exit; }
           $newsid = "nid_" . $newsid;
           query("SELECT * FROM news WHERE newsid=" . $newsid);|};
       ])

let parser_tests =
  [
    test "parses the Fig. 1 program" (fun () ->
        check_int "statements" 4 (List.length utopia);
        Alcotest.(check (list string)) "inputs" [ "posted_newsid" ] (Ast.inputs utopia));
    test "source round trip" (fun () ->
        let printed = Ast.to_source utopia in
        let reparsed = Lang_parser.parse_exn printed in
        check_bool "same program" true (reparsed = utopia));
    test "basic block count" (fun () ->
        (* entry + (then-arm + join) for the one if *)
        check_int "blocks" 3 (Ast.basic_blocks utopia));
    test "loc counts printed lines" (fun () ->
        check_bool "positive" true (Ast.loc utopia > 4));
    test "parse errors" (fun () ->
        List.iter
          (fun src ->
            match Lang_parser.parse src with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "expected parse error: %s" src)
          [
            "$x = ;"; "query(; )"; "if ($x) exit;"; "$x == \"y\";";
            "foo();"; "$x = input(name);"; "if (preg_match(/a/ $x)) {}";
          ]);
    test "if/else parse" (fun () ->
        let p = Lang_parser.parse_exn {|if ($x == "a") { exit; } else { echo "b"; }|} in
        match p with
        | [ Ast.If (_, [ Ast.Exit ], [ Ast.Echo _ ]) ] -> ()
        | _ -> Alcotest.fail "unexpected shape");
  ]

let eval_tests =
  [
    test "benign input passes filter and queries" (fun () ->
        let r = Eval.run utopia ~inputs:[ ("posted_newsid", "42") ] in
        check_bool "not exited" false r.exited;
        match r.events with
        | [ Eval.Queried q ] ->
            check_string "query" "SELECT * FROM news WHERE newsid=nid_42" q
        | _ -> Alcotest.fail "expected exactly one query");
    test "obvious attack is stopped by the filter" (fun () ->
        let r = Eval.run utopia ~inputs:[ ("posted_newsid", "' OR 1=1 --") ] in
        check_bool "exited" true r.exited;
        check_int "no query" 0
          (List.length (Eval.queries utopia ~inputs:[ ("posted_newsid", "' OR 1=1 --") ])));
    test "the paper's exploit slips through" (fun () ->
        let inputs = [ ("posted_newsid", "' OR 1=1 ; DROP news --9") ] in
        check_bool "vulnerable" true
          (Eval.vulnerable_run ~attack:Attack.contains_quote utopia ~inputs));
    test "missing input defaults to empty string" (fun () ->
        let r = Eval.run utopia ~inputs:[] in
        check_bool "exited (empty fails filter)" true r.exited);
    test "unassigned variable is an error" (fun () ->
        let p = Lang_parser.parse_exn "echo $nope;" in
        Alcotest.check_raises "invalid"
          (Invalid_argument "Webapp.Eval: unassigned variable $nope") (fun () ->
            ignore (Eval.run p ~inputs:[])));
  ]

let attack_tests =
  [
    test "quote language" (fun () ->
        check_bool "quote" true (Nfa.accepts Attack.contains_quote "a'b");
        check_bool "clean" false (Nfa.accepts Attack.contains_quote "ab"));
    test "tautology" (fun () ->
        check_bool "classic" true (Nfa.accepts Attack.tautology "x' OR 1=1 y");
        check_bool "benign" false (Nfa.accepts Attack.tautology "x=1"));
    test "stacked drop" (fun () ->
        check_bool "drop" true (Nfa.accepts Attack.stacked_drop "x; DROP tbl");
        check_bool "benign" false (Nfa.accepts Attack.stacked_drop "x drop"));
    test "registry" (fun () ->
        check_bool "quote known" true (Attack.lookup "quote" <> None);
        check_bool "unknown" true (Attack.lookup "nope" = None);
        check_int "count" 6 (List.length Attack.names));
  ]

let symexec_tests =
  [
    test "vulnerable program yields a solvable candidate" (fun () ->
        let candidates =
          (Symexec.analyze ~attack:Attack.contains_quote utopia)
            .Symexec.candidates
        in
        check_int "one sink-reaching path" 1 (List.length candidates);
        let q = List.hd candidates in
        Alcotest.(check (list string)) "vars" [ "posted_newsid" ] q.input_vars;
        match (Symexec.solve q).assignment with
        | None -> Alcotest.fail "expected exploit language"
        | Some a ->
            let lang = Automata.Store.nfa (Dprle.Assignment.find a "posted_newsid") in
            check_bool "attack in language" true
              (Nfa.accepts lang "' OR 1=1 ; DROP news --9");
            check_bool "benign not in language" false (Nfa.accepts lang "7"));
    test "fixed program yields no exploit" (fun () ->
        check_bool "safe" true
          (Symexec.first_exploit ~attack:Attack.contains_quote fixed_utopia = None));
    test "end to end: generated exploit works in the interpreter" (fun () ->
        match Symexec.first_exploit ~attack:Attack.contains_quote utopia with
        | None -> Alcotest.fail "expected exploit"
        | Some inputs ->
            check_bool "exploit fires" true
              (Eval.vulnerable_run ~attack:Attack.contains_quote utopia ~inputs));
    test "constraint count counts depgraph edges" (fun () ->
        (* filter ⊆-edge + sink ⊆-edge + one ∘-pair: the adjacent
           literals "SELECT …=" and "nid_" merge into one constant
           during symbolic evaluation *)
        let q =
          List.hd
            (Symexec.analyze ~attack:Attack.contains_quote utopia)
              .Symexec.candidates
        in
        check_int "c" 3 q.constraint_count);
    test "constant branches are folded, input branches fork" (fun () ->
        let p =
          Lang_parser.parse_exn
            {|$mode = "a";
              if ($mode == "a") { echo "x"; } else { echo "y"; }
              if (input("u") == "q") { query("'" . input("u")); }
              query("safe");|}
        in
        let candidates =
          (Symexec.analyze ~attack:Attack.contains_quote p).Symexec.candidates
        in
        (* sinks: quoted query on the taken branch; "safe" sink on both
           forks of the input branch *)
        check_int "three candidates" 3 (List.length candidates));
    test "multiple sinks on one path get separate candidates" (fun () ->
        let p =
          Lang_parser.parse_exn
            {|query("a" . input("x")); query("b" . input("y"));|}
        in
        let candidates =
          (Symexec.analyze ~attack:Attack.contains_quote p).Symexec.candidates
        in
        check_int "two" 2 (List.length candidates);
        Alcotest.(check (list int))
          "sink indices" [ 0; 1 ]
          (List.map (fun q -> q.Symexec.sink_index) candidates));
    test "infeasible constant path solves unsat" (fun () ->
        let p =
          Lang_parser.parse_exn
            {|if (input("x") == "benign") { query("'" . input("x")); }|}
        in
        (* the path constrains x = "benign", whose query "'benign" does
           contain a quote — so this IS exploitable *)
        match Symexec.first_exploit ~attack:Attack.contains_quote p with
        | Some [ ("x", "benign") ] -> ()
        | Some other ->
            Alcotest.failf "unexpected inputs: %s"
              (String.concat "," (List.map fst other))
        | None -> Alcotest.fail "expected exploit");
    test "conflicting filters are unsat" (fun () ->
        let p =
          Lang_parser.parse_exn
            {|$x = input("x");
              if (!preg_match(/^[a-z]+$/, $x)) { exit; }
              if (!preg_match(/^[0-9]+$/, $x)) { exit; }
              query("SELECT " . $x);|}
        in
        check_bool "no exploit" true
          (Symexec.first_exploit ~attack:Attack.contains_quote p = None));
    test "unconstrained extra input defaults to a" (fun () ->
        let p =
          Lang_parser.parse_exn
            {|$u = input("userid");
              query("SELECT " . input("newsid"));
              echo $u;|}
        in
        match Symexec.first_exploit ~attack:Attack.contains_quote p with
        | Some inputs ->
            check_bool "userid defaulted" true (List.assoc "userid" inputs = "a")
        | None -> Alcotest.fail "expected exploit");
  ]

let symexec_props =
  (* random loop-free programs over a small statement vocabulary *)
  let program_gen =
    let open QCheck2.Gen in
    let input_names = [ "a"; "b" ] in
    let patterns = [ "/^[0-9]+$/"; "/[0-9]$/"; "/^[a-z]*$/" ] in
    let expr_gen =
      let* name = oneofl input_names in
      let* lit = oneofl [ "q="; "'"; "x" ] in
      oneofl
        [
          Ast.Input name;
          Ast.Concat (Ast.Str lit, Ast.Input name);
          Ast.Str lit;
        ]
    in
    let stmt_gen =
      let* pat = oneofl patterns in
      let* name = oneofl input_names in
      let* e = expr_gen in
      oneofl
        [
          Ast.If
            ( Ast.Not (Ast.Preg_match (Regex.Parser.parse_pattern_exn pat, Ast.Input name)),
              [ Ast.Exit ],
              [] );
          Ast.Query e;
          Ast.Echo e;
          Ast.Assign ("t", e);
        ]
    in
    list_size (int_range 1 6) stmt_gen
  in
  [
    qtest ~count:40 "every generated exploit fires concretely" program_gen
      (fun program ->
        match
          Symexec.first_exploit ~attack:Attack.contains_quote program
        with
        | None -> true (* nothing claimed, nothing to check *)
        | Some inputs ->
            Eval.vulnerable_run ~attack:Attack.contains_quote program ~inputs);
    qtest ~count:40 "symbolic path constraints agree with concrete runs"
      program_gen
      (fun program ->
        (* solve every candidate; its witness inputs must drive a real
           run that issues an attack query *)
        let candidates =
          (Symexec.analyze ~attack:Attack.contains_quote program)
            .Symexec.candidates
        in
        List.for_all
          (fun q ->
            match (Symexec.solve q).assignment with
            | None -> true
            | Some a ->
                let constrained = Symexec.exploit_inputs q a in
                let defaults =
                  List.filter_map
                    (fun i ->
                      if List.mem_assoc i constrained then None else Some (i, "a"))
                    (Ast.inputs program)
                in
                Eval.vulnerable_run ~attack:Attack.contains_quote program
                  ~inputs:(constrained @ defaults))
          candidates);
    qtest ~count:40 "a sink-free suffix changes no candidate"
      (QCheck2.Gen.pair program_gen sink_free_suffix_gen)
      (fun (program, suffix) ->
        let explore p = Symexec.analyze ~attack:Attack.contains_quote p in
        let a = explore program and b = explore (program @ suffix) in
        let same_system x y =
          Dprle.System.constraints x = Dprle.System.constraints y
          && List.equal
               (fun (n, h) (n', h') -> n = n' && Store.equal h h')
               (Dprle.System.constants x) (Dprle.System.constants y)
        in
        let same (q : Symexec.query) (q' : Symexec.query) =
          q.path_id = q'.path_id && q.sink_index = q'.sink_index
          && q.sink_id = q'.sink_id && same_system q.system q'.system
          && same_system q.benign_system q'.benign_system
          && q.slots = q'.slots && q.constraint_count = q'.constraint_count
        in
        a.paths_truncated = b.paths_truncated
        && List.equal same a.candidates b.candidates);
  ]

(* Symbolic execution and the dataflow domain read a branch's
   language from [Semantics.cond_lang]; the interpreter decides the
   branch with [Semantics.holds]. The two must agree on every word,
   whether the store serves the language or builds it afresh. *)
let semantics_props =
  let char_gen = QCheck2.Gen.oneofl [ 'a'; 'B'; '0'; '7'; '\''; '"'; '\\' ] in
  let word_gen = QCheck2.Gen.(string_size ~gen:char_gen (int_bound 6)) in
  let cond_gen =
    let open QCheck2.Gen in
    let x = Ast.Input "x" in
    let* atom =
      oneof
        [
          map
            (fun p -> Ast.Preg_match (Regex.Parser.parse_pattern_exn p, x))
            (oneofl
               [ "/^[0-9]+$/"; "/[0-9]$/"; "/^[a-z']*$/"; "/'/"; "/^a{1,3}B?$/" ]);
          map (fun s -> Ast.Str_eq (x, s)) word_gen;
          map2
            (fun cmp n -> Ast.Strlen (x, cmp, n))
            (oneofl [ Ast.Len_eq; Ast.Len_le; Ast.Len_ge ])
            (int_bound 5);
        ]
    in
    let* nots = int_bound 2 in
    return (List.fold_left (fun c _ -> Ast.Not c) atom (List.init nots Fun.id))
  in
  let sanitizer_gen =
    let open QCheck2.Gen in
    oneof
      [
        oneofl [ Ast.Lower; Ast.Upper; Ast.Addslashes ];
        map2 (fun c s -> Ast.Replace (c, s)) char_gen word_gen;
      ]
  in
  let with_store enabled f =
    Fun.protect
      ~finally:(fun () -> Store.set_enabled true)
      (fun () ->
        Store.set_enabled enabled;
        f ())
  in
  [
    qtest ~count:300 "cond_lang b c accepts w iff c evaluates to b on w"
      QCheck2.Gen.(triple cond_gen bool word_gen)
      (fun (c, b, w) ->
        List.for_all
          (fun enabled ->
            with_store enabled (fun () ->
                Nfa.accepts (Store.nfa (Semantics.cond_lang b c)) w
                = (Semantics.holds c w = b)))
          [ true; false ]);
    qtest ~count:300 "a sanitizer's transducer applies as the sanitizer"
      QCheck2.Gen.(pair sanitizer_gen word_gen)
      (fun (s, w) ->
        Automata.Fst.apply (Semantics.fst s) w = Some (Semantics.apply s w));
  ]

let suite =
  [
    ("webapp:parser", parser_tests);
    ("webapp:eval", eval_tests);
    ("webapp:attack", attack_tests);
    ("webapp:symexec", symexec_tests);
    ("webapp:props", symexec_props);
    ("webapp:semantics", semantics_props);
  ]
