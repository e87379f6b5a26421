open Helpers
module Nfa = Automata.Nfa
module Sysparse = Dprle.Sysparse
module System = Dprle.System
module Solver = Dprle.Solver
module Assignment = Dprle.Assignment

let fig1_source =
  {|
# SQL-injection example (Fig. 1 / section 2 of the paper)
let filter = /[\d]+$/;        # the faulty check on line 2
let prefix = "nid_";          # concatenated on line 6
let unsafe = /'/;             # queries containing a quote

v1 <= filter;
prefix . v1 <= unsafe;
|}

let unit_tests =
  [
    test "parses the paper's example file" (fun () ->
        let s = Sysparse.parse_exn fig1_source in
        check_int "constraints" 2 (System.size s);
        Alcotest.(check (list string)) "vars" [ "v1" ] (System.variables s);
        check_int "consts" 3 (List.length (System.constants s)));
    test "parsed system solves to the exploit language" (fun () ->
        let s = Sysparse.parse_exn fig1_source in
        match run_solver s with
        | Solver.Sat [ a ] ->
            let v1 = Automata.Store.nfa (Assignment.find a "v1") in
            check_bool "attack" true (Nfa.accepts v1 "' OR 1=1 ; DROP news --9");
            check_bool "benign" false (Nfa.accepts v1 "17")
        | Solver.Sat sols ->
            Alcotest.failf "expected 1 solution, got %d" (List.length sols)
        | Solver.Unsat r -> Alcotest.failf "unsat: %s" (Solver.unsat_message r.Solver.reason));
    test "string escapes" (fun () ->
        let s = Sysparse.parse_exn {|let c = "a\n\t\"\\";  v <= c;|} in
        check_bool "lang" true
          (Automata.Lang.equal (Automata.Store.nfa (System.const_handle s "c")) (Nfa.of_word "a\n\t\"\\")));
    test "escaped slash in pattern" (fun () ->
        let s = Sysparse.parse_exn {|let c = /^a\/b$/; v <= c;|} in
        check_bool "a/b" true (Nfa.accepts (Automata.Store.nfa (System.const_handle s "c")) "a/b"));
    test "anchored vs unanchored constants" (fun () ->
        let s = Sysparse.parse_exn {|let exact = /^ab$/; let loose = /ab/; v <= exact; w <= loose;|} in
        check_bool "exact" false (Nfa.accepts (Automata.Store.nfa (System.const_handle s "exact")) "xaby");
        check_bool "loose" true (Nfa.accepts (Automata.Store.nfa (System.const_handle s "loose")) "xaby"));
    test "multi-operand concatenation" (fun () ->
        let s = Sysparse.parse_exn {|let c = /^abc$/; x . y . z <= c;|} in
        match System.constraints s with
        | [ { lhs = Concat (Var "x", Concat (Var "y", Var "z")); rhs = "c" } ] -> ()
        | _ -> Alcotest.fail "unexpected parse");
    test "errors carry positions" (fun () ->
        List.iter
          (fun (src, expect_line) ->
            match Sysparse.parse src with
            | Error { line; _ } -> check_int src expect_line line
            | Ok _ -> Alcotest.failf "expected error for %s" src)
          [
            ("let = /a/;", 1);
            ("v <= undefined_const;", 1);
            ("let c = /a/;\nv < c;", 2);
            ("let c = /a/;\nlet c = /b/;", 2);
            ("let c = \"unterminated", 1);
            ("let c = /a(/; v <= c;", 1);
          ]);
    test "rhs must be a constant" (fun () ->
        match Sysparse.parse "x <= y;" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "variable rhs accepted");
    test "union syntax with grouping" (fun () ->
        let s =
          Sysparse.parse_exn {|let c = /^ab*$/; (x | y) . z <= c; x | y <= c;|}
        in
        match System.constraints s with
        | [
         { lhs = Concat (Union (Var "x", Var "y"), Var "z"); rhs = "c" };
         { lhs = Union (Var "x", Var "y"); rhs = "c" };
        ] ->
            ()
        | _ -> Alcotest.fail "unexpected parse");
    test "union system solves" (fun () ->
        let s = Sysparse.parse_exn {|let c = /^a{1,2}$/; (x | y) <= c;|} in
        match run_solver s with
        | Solver.Sat [ a ] ->
            check_bool "x" true
              (Automata.Store.equal (Assignment.find a "x")
                 (Dprle.System.const_handle s "c"))
        | _ -> Alcotest.fail "expected one solution");
    test "unbalanced parens rejected" (fun () ->
        List.iter
          (fun src ->
            match Sysparse.parse src with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "expected error: %s" src)
          [ "let c = /a/; (x . y <= c;"; "let c = /a/; x | <= c;" ]);
  ]

let suite = [ ("sysparse:unit", unit_tests) ]
