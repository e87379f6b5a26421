open Helpers
module Nfa = Automata.Nfa
module Ops = Automata.Ops
module Lang = Automata.Lang
module System = Dprle.System
module Depgraph = Dprle.Depgraph
module Ci = Dprle.Ci
module Solver = Dprle.Solver
module Assignment = Dprle.Assignment
module Validate = Dprle.Validate
module Residual = Dprle.Residual
module Store = Automata.Store

let re = System.const_of_regex
let lang_of s = Automata.Store.nfa (re s)

(* the machine a solution binds [v] to *)
let find a v = Automata.Store.nfa (Assignment.find a v)

let check_lang name expected actual =
  if not (Lang.equal (lang_of expected) actual) then
    Alcotest.failf "%s: expected /%s/, got /%s/" name expected
      (Regex.State_elim.to_string actual)

(* ------------------------------------------------------------------ *)
(* concat_intersect (Fig. 3) on direct instances                      *)

let ci_tests =
  [
    test "running example (Fig. 4): nid_ prefix" (fun () ->
        (* c1 = "nid_", c2 = Σ*[0-9] (the faulty filter), c3 = strings
           containing a quote *)
        (* [Lang.compact] gives the small machines the paper draws in
           Fig. 4 (an unminimized Thompson machine for c3 has a second
           ε-cut describing the same solution) *)
        let compact h = Lang.compact (Automata.Store.nfa h) in
        let c1 = compact (System.const_of_word "nid_") in
        let c2 = compact (System.const_of_pattern "/[\\d]+$/") in
        let c3 = compact (System.const_of_pattern "/'/") in
        let { Ci.solutions; _ } = Ci.concat_intersect c1 c2 c3 in
        check_int "one cut" 1 (List.length solutions);
        let { Ci.v1; v2; _ } = List.hd solutions in
        check_lang "v1" "nid_" v1;
        (* v2: contains a quote and ends with a digit *)
        check_bool "attack in v2" true (Nfa.accepts v2 "' OR 1=1 ; DROP news --9");
        check_bool "quoteless not in v2" false (Nfa.accepts v2 "42");
        check_bool "non-digit-tail not in v2" false (Nfa.accepts v2 "'x");
        check_bool "sat" true
          (Validate.ci_satisfying ~c1 ~c2 ~c3 (List.hd solutions));
        check_bool "all-solutions" true
          (Validate.ci_all_solutions ~c1 ~c2 ~c3 solutions));
    test "disjunctive example (§3.1.1)" (fun () ->
        let c1 = lang_of "x(yy)+" in
        let c2 = lang_of "(yy)*z" in
        let c3 = lang_of "xyyz|xyyyyz" in
        let { Ci.solutions; _ } = Ci.concat_intersect c1 c2 c3 in
        check_bool "nonempty" true (solutions <> []);
        List.iter
          (fun s ->
            check_bool "sat" true (Validate.ci_satisfying ~c1 ~c2 ~c3 s))
          solutions;
        check_bool "all-solutions" true
          (Validate.ci_all_solutions ~c1 ~c2 ~c3 solutions));
    test "empty intersection yields no solutions" (fun () ->
        let c1 = lang_of "a+" and c2 = lang_of "b+" in
        let c3 = lang_of "c+" in
        let { Ci.solutions; _ } = Ci.concat_intersect c1 c2 c3 in
        check_int "none" 0 (List.length solutions));
    test "epsilon splits" (fun () ->
        (* v1 ⊆ a*, v2 ⊆ a*, v1v2 ⊆ aa: cuts at 0/1/2 a's *)
        let c1 = lang_of "a*" and c2 = lang_of "a*" in
        let c3 = lang_of "aa" in
        let { Ci.solutions; _ } = Ci.concat_intersect c1 c2 c3 in
        check_bool "has solutions" true (solutions <> []);
        check_bool "all-solutions" true
          (Validate.ci_all_solutions ~c1 ~c2 ~c3 solutions));
    test "cut is a real eps edge of m5" (fun () ->
        let c1 = lang_of "ab" and c2 = lang_of "ba" in
        let c3 = lang_of "abba" in
        let { Ci.solutions; m5; _ } = Ci.concat_intersect c1 c2 c3 in
        List.iter
          (fun { Ci.cut = qa, qb; _ } ->
            check_bool "eps edge" true (Nfa.has_eps_edge m5 qa qb))
          solutions);
  ]

let ci_props =
  let langs_gen =
    QCheck2.Gen.(
      let regex_pool =
        [ "a*"; "a+b"; "(ab)*"; "a|bb"; "ab?c"; "[ab]+"; "a{1,3}"; "b(a|b)*";
          "(a|b)(a|b)"; "ba*b|a" ]
      in
      let* r1 = oneofl regex_pool in
      let* r2 = oneofl regex_pool in
      let* r3 = oneofl regex_pool in
      let* pad = oneofl [ ""; "a"; "ab"; "ba" ] in
      return (r1, r2, r3 ^ pad))
  in
  [
    qtest ~count:80 "CI: Satisfying on random instances" langs_gen
      (fun (r1, r2, r3) ->
        let c1 = lang_of r1 and c2 = lang_of r2 and c3 = lang_of r3 in
        List.for_all
          (Validate.ci_satisfying ~c1 ~c2 ~c3)
          (Ci.solve c1 c2 c3));
    qtest ~count:80 "CI: All Solutions on random instances" langs_gen
      (fun (r1, r2, r3) ->
        let c1 = lang_of r1 and c2 = lang_of r2 and c3 = lang_of r3 in
        Validate.ci_all_solutions ~c1 ~c2 ~c3 (Ci.solve c1 c2 c3));
    qtest ~count:80 "CI: no empty assignments" langs_gen (fun (r1, r2, r3) ->
        let c1 = lang_of r1 and c2 = lang_of r2 and c3 = lang_of r3 in
        List.for_all
          (fun { Ci.v1; v2; _ } ->
            (not (Nfa.is_empty_lang v1)) && not (Nfa.is_empty_lang v2))
          (Ci.solve c1 c2 c3));
    qtest ~count:80 "CI: solution count bounded by |M3| states" langs_gen
      (fun (r1, r2, r3) ->
        let c1 = lang_of r1 and c2 = lang_of r2 and c3 = lang_of r3 in
        List.length (Ci.solve c1 c2 c3) <= Nfa.num_states c3);
  ]

(* ------------------------------------------------------------------ *)
(* Dependency graphs (Fig. 5 / Fig. 6)                                *)

let mk_system consts constraints =
  System.make_exn
    ~consts:(List.map (fun (n, r) -> (n, re r)) consts)
    ~constraints

let fig6_system =
  (* v1 ⊆ c1, c2 ∘ v1 ⊆ c3 — the motivating example's shape *)
  mk_system
    [ ("c1", "(.*)[0-9]"); ("c2", "nid_"); ("c3", ".*'.*") ]
    [
      { lhs = Var "v1"; rhs = "c1" };
      { lhs = Concat (Const "c2", Var "v1"); rhs = "c3" };
    ]

let depgraph_tests =
  [
    test "fig 6 graph structure" (fun () ->
        let g = Depgraph.of_system fig6_system in
        check_int "nodes: c1 c2 c3 v1 t0" 5 (List.length g.nodes);
        check_int "subset edges" 2 (List.length g.subsets);
        check_int "concat pairs" 1 (List.length g.concats);
        let { Depgraph.left; right; result } = List.hd g.concats in
        check_bool "left is c2" true (Depgraph.node_equal left (Const "c2"));
        check_bool "right is v1" true (Depgraph.node_equal right (Var "v1"));
        check_bool "result is tmp" true (match result with Depgraph.Tmp _ -> true | _ -> false));
    test "fig 6 CI-groups" (fun () ->
        let g = Depgraph.of_system fig6_system in
        let groups = Depgraph.ci_groups g in
        let sizes = List.sort compare (List.map List.length groups) in
        (* {v1, t0} plus singletons {c1} {c2} {c3} — constant operands
           do not couple concatenations *)
        Alcotest.(check (list int)) "group sizes" [ 1; 1; 1; 2 ] sizes);
    test "nested concat makes a taller graph" (fun () ->
        let s =
          mk_system
            [ ("c1", "a*"); ("c2", "b*"); ("c3", "c*"); ("c4", "(abc)*") ]
            [
              {
                lhs = Concat (Concat (Var "v1", Var "v2"), Var "v3");
                rhs = "c4";
              };
              { lhs = Var "v1"; rhs = "c1" };
              { lhs = Var "v2"; rhs = "c2" };
              { lhs = Var "v3"; rhs = "c3" };
            ]
        in
        let g = Depgraph.of_system s in
        check_int "two tmps" 2 (List.length g.concats);
        let groups = Depgraph.ci_groups g in
        check_int "one concat group + 4 const singletons" 5 (List.length groups));
    test "dot output is generated" (fun () ->
        let dot = Depgraph.to_dot (Depgraph.of_system fig6_system) in
        check_bool "nonempty" true (String.length dot > 40));
    test "system validation" (fun () ->
        (match
           System.make ~consts:[] ~constraints:[ { lhs = Var "v"; rhs = "c" } ]
         with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "undefined constant accepted");
        match
          System.make
            ~consts:[ ("x", Automata.Store.top ()) ]
            ~constraints:[ { lhs = Var "x"; rhs = "x" } ]
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "var/const clash accepted");
  ]

(* ------------------------------------------------------------------ *)
(* Full solver                                                        *)

let solve_exn ?max_solutions system =
  match run_solver ?max_solutions system with
  | Solver.Sat solutions -> solutions
  | Solver.Unsat { reason; _ } ->
      Alcotest.failf "unexpected unsat: %s" (Solver.unsat_message reason)

let solver_tests =
  [
    test "single variable, single constraint (§3.1.1 ex. 1)" (fun () ->
        let s =
          mk_system
            [ ("c1", "(xx)+y"); ("c2", "x*y") ]
            [ { lhs = Var "v1"; rhs = "c1" }; { lhs = Var "v1"; rhs = "c2" } ]
        in
        match solve_exn s with
        | [ a ] -> check_lang "v1" "(xx)+y" (find a "v1")
        | sols -> Alcotest.failf "expected 1 solution, got %d" (List.length sols));
    test "disjunctive system (§3.1.1 ex. 2) — paper's A1 and A2" (fun () ->
        let s =
          mk_system
            [ ("c1", "x(yy)+"); ("c2", "(yy)*z"); ("c3", "xyyz|xyyyyz") ]
            [
              { lhs = Var "v1"; rhs = "c1" };
              { lhs = Var "v2"; rhs = "c2" };
              { lhs = Concat (Var "v1", Var "v2"); rhs = "c3" };
            ]
        in
        let sols = solve_exn s in
        check_int "two disjuncts" 2 (List.length sols);
        let expect_one v1_re v2_re =
          check_bool
            (Printf.sprintf "solution [%s, %s] present" v1_re v2_re)
            true
            (List.exists
               (fun a ->
                 Lang.equal (find a "v1") (lang_of v1_re)
                 && Lang.equal (find a "v2") (lang_of v2_re))
               sols)
        in
        (* the paper's A1 and A2 verbatim *)
        expect_one "xyy" "z|yyz";
        expect_one "x(yy|yyyy)" "z";
        List.iter
          (fun a ->
            check_bool "satisfying" true (Validate.satisfying s a);
            check_bool "maximal (probe)" true (Validate.maximal_probe s a))
          sols;
        check_bool "incomparable" true (Validate.pairwise_incomparable sols));
    test "motivating example: exploit language" (fun () ->
        let sols = solve_exn fig6_system in
        check_int "one solution" 1 (List.length sols);
        let v1 = find (List.hd sols) "v1" in
        check_bool "attack" true (Nfa.accepts v1 "' OR 1=1 ; DROP news --9");
        check_bool "benign blocked" false (Nfa.accepts v1 "42"));
    test "fixed filter makes the system unsat" (fun () ->
        (* with the ^ anchor, no input both passes the filter and
           produces a quoted query *)
        let s =
          mk_system
            [ ("c1", "[0-9]+"); ("c2", "nid_"); ("c3", ".*'.*") ]
            [
              { lhs = Var "v1"; rhs = "c1" };
              { lhs = Concat (Const "c2", Var "v1"); rhs = "c3" };
            ]
        in
        match run_solver s with
        | Solver.Unsat _ -> ()
        | Solver.Sat sols ->
            Alcotest.failf "expected unsat, got %d solutions" (List.length sols));
    test "const-vs-const inclusion holds" (fun () ->
        let s =
          mk_system
            [ ("sub", "ab"); ("super", "a.*") ]
            [ { lhs = Const "sub"; rhs = "super" } ]
        in
        check_int "trivially sat, no vars" 1 (List.length (solve_exn s)));
    test "const-vs-const inclusion fails" (fun () ->
        let s =
          mk_system
            [ ("sub", "ba"); ("super", "a.*") ]
            [ { lhs = Const "sub"; rhs = "super" } ]
        in
        match run_solver s with
        | Solver.Unsat _ -> ()
        | Solver.Sat _ -> Alcotest.fail "expected unsat");
    test "shared variable across two concats (Fig. 9 shape)" (fun () ->
        let s =
          mk_system
            [
              ("ca", "o(pp)+"); ("cb", "p*(qq)+"); ("cc", "q*r");
              ("c1", "op{5}q*"); ("c2", "p*q{4}r");
            ]
            [
              { lhs = Var "va"; rhs = "ca" };
              { lhs = Var "vb"; rhs = "cb" };
              { lhs = Var "vc"; rhs = "cc" };
              { lhs = Concat (Var "va", Var "vb"); rhs = "c1" };
              { lhs = Concat (Var "vb", Var "vc"); rhs = "c2" };
            ]
        in
        let sols = solve_exn s in
        (* the two solutions printed in §3.4.4 ... *)
        let expect va vb vc =
          check_bool
            (Printf.sprintf "[%s,%s,%s] present" va vb vc)
            true
            (List.exists
               (fun a ->
                 Lang.equal (find a "va") (lang_of va)
                 && Lang.equal (find a "vb") (lang_of vb)
                 && Lang.equal (find a "vc") (lang_of vc))
               sols)
        in
        expect "op{2}" "p{3}q{2}" "q{2}r";
        expect "op{4}" "pq{2}" "q{2}r";
        (* ... and the two symmetric ones the same semantics admits
           (see EXPERIMENTS.md on the discrepancy with the paper's
           stated count) *)
        expect "op{2}" "p{3}q{4}" "r";
        expect "op{4}" "pq{4}" "r";
        check_int "four maximal disjuncts" 4 (List.length sols);
        List.iter
          (fun a ->
            check_bool "satisfying" true (Validate.satisfying s a);
            check_bool "maximal (probe)" true (Validate.maximal_probe s a))
          sols;
        check_bool "incomparable" true (Validate.pairwise_incomparable sols));
    test "nested concatenation (v1.v2).v3" (fun () ->
        let s =
          mk_system
            [ ("c1", "a+"); ("c2", "b+"); ("c3", "c+"); ("c4", "abbc|aabcc") ]
            [
              { lhs = Var "v1"; rhs = "c1" };
              { lhs = Var "v2"; rhs = "c2" };
              { lhs = Var "v3"; rhs = "c3" };
              {
                lhs = Concat (Concat (Var "v1", Var "v2"), Var "v3");
                rhs = "c4";
              };
            ]
        in
        let sols = solve_exn s in
        check_bool "has solutions" true (sols <> []);
        List.iter
          (fun a -> check_bool "satisfying" true (Validate.satisfying s a))
          sols;
        (* the subset constraint on c4 must push back through both
           concatenations to v1 *)
        List.iter
          (fun a ->
            check_bool "v1 bounded" true
              (Lang.subset (find a "v1") (lang_of "a|aa")))
          sols);
    test "an empty temporary slice kills its combination" (fun () ->
        (* a combination leaves v1 and v2 a word each, but no path
           runs from the temporary's entry to its exit in the root:
           the solver proper (analyzer off) must reject it on the
           temporary's emptiness alone *)
        let s =
          mk_system
            [ ("c1", "(ab)*"); ("c2", "ab"); ("c", "ab"); ("t", "[ab]{1,3}|(a|b)*a") ]
            [
              { lhs = Var "v1"; rhs = "c1" };
              { lhs = Var "v2"; rhs = "c2" };
              { lhs = Concat (Concat (Var "v1", Var "v2"), Const "c"); rhs = "t" };
            ]
        in
        match Solver.run (Solver.Config.make ~analyze:false ()) s with
        | Ok (Solver.Unsat r) ->
            check_string "reason"
              "every ε-cut combination of a CI-group forces an empty language"
              (Solver.unsat_message r.Solver.reason)
        | _ -> Alcotest.fail "expected unsat");
    test "same variable twice in one concat" (fun () ->
        let s =
          mk_system
            [ ("c1", "a*"); ("c3", "aaaa") ]
            [
              { lhs = Var "v"; rhs = "c1" };
              { lhs = Concat (Var "v", Var "v"); rhs = "c3" };
            ]
        in
        let sols = solve_exn s in
        check_bool "has solutions" true (sols <> []);
        List.iter
          (fun a ->
            check_bool "satisfying" true (Validate.satisfying s a);
            check_lang "v" "aa" (find a "v"))
          sols);
    test "unconstrained variable gets sigma-star" (fun () ->
        let s =
          mk_system [ ("c", "a*") ] [ { lhs = Var "v"; rhs = "c" } ]
        in
        match solve_exn s with
        | [ a ] -> check_lang "v" "a*" (find a "v")
        | _ -> Alcotest.fail "expected one solution");
    test "two independent groups multiply" (fun () ->
        let s =
          mk_system
            [ ("c1", "x(yy)+"); ("c2", "(yy)*z"); ("c3", "xyyz|xyyyyz"); ("d", "q+") ]
            [
              { lhs = Var "v1"; rhs = "c1" };
              { lhs = Var "v2"; rhs = "c2" };
              { lhs = Concat (Var "v1", Var "v2"); rhs = "c3" };
              { lhs = Var "w"; rhs = "d" };
            ]
        in
        let sols = solve_exn s in
        check_int "2 disjuncts × 1" 2 (List.length sols);
        List.iter
          (fun a -> check_lang "w" "q+" (find a "w"))
          sols);
    test "multi-word constant operand: universal semantics" (fun () ->
        (* a* ∘ v ⊆ (ab)* must quantify over ALL of a*, forcing v = ∅:
           regression test for the ∃-slicing unsoundness found by
           differential testing (see DESIGN.md) *)
        let s =
          mk_system
            [ ("c1", "a*"); ("c3", "(ab)*") ]
            [ { lhs = Concat (Const "c1", Var "v"); rhs = "c3" } ]
        in
        (match run_solver s with
        | Solver.Unsat _ -> ()
        | Solver.Sat sols ->
            Alcotest.failf "expected unsat, got %d solutions" (List.length sols));
        (* whereas a* ∘ v ⊆ a*b has the maximal solution v = a*b *)
        let s' =
          mk_system
            [ ("c1", "a*"); ("c3", "a*b") ]
            [ { lhs = Concat (Const "c1", Var "v"); rhs = "c3" } ]
        in
        match solve_exn s' with
        | [ a ] ->
            check_lang "v" "a*b" (find a "v");
            check_bool "satisfying" true (Validate.satisfying s' a)
        | sols -> Alcotest.failf "expected 1 solution, got %d" (List.length sols));
    test "multi-word constant on the right edge" (fun () ->
        (* v ∘ a* ⊆ ba* : v must work for every a-suffix *)
        let s =
          mk_system
            [ ("c2", "a*"); ("c3", "ba*") ]
            [ { lhs = Concat (Var "v", Const "c2"); rhs = "c3" } ]
        in
        match solve_exn s with
        | [ a ] ->
            check_lang "v" "ba*" (find a "v");
            check_bool "satisfying" true (Validate.satisfying s a)
        | sols -> Alcotest.failf "expected 1 solution, got %d" (List.length sols));
    test "interior multi-word constant stays sound" (fun () ->
        (* v1 ∘ (a|aa) ∘ v2 ⊆ b a{1,2} c : combos are verified, so
           every returned disjunct must satisfy *)
        let s =
          mk_system
            [ ("mid", "a|aa"); ("c3", "ba{1,2}c") ]
            [
              {
                lhs = Concat (Var "v1", Concat (Const "mid", Var "v2"));
                rhs = "c3";
              };
            ]
        in
        match run_solver s with
        | Solver.Unsat _ -> ()
        | Solver.Sat sols ->
            check_bool "nonempty" true (sols <> []);
            List.iter
              (fun a ->
                check_bool "satisfying" true (Validate.satisfying s a))
              sols);
    test "concat of constants checked by inclusion" (fun () ->
        let bad =
          mk_system
            [ ("a", "x"); ("b", "y"); ("c", "xz") ]
            [ { lhs = Concat (Const "a", Const "b"); rhs = "c" } ]
        in
        (match run_solver bad with
        | Solver.Unsat _ -> ()
        | Solver.Sat _ -> Alcotest.fail "expected unsat");
        let good =
          mk_system
            [ ("a", "x"); ("b", "y"); ("c", "xy|z") ]
            [ { lhs = Concat (Const "a", Const "b"); rhs = "c" } ]
        in
        match run_solver good with
        | Solver.Sat _ -> ()
        | Solver.Unsat r -> Alcotest.failf "expected sat: %s" (Solver.unsat_message r.Solver.reason));
    test "union lhs splits into conjuncts (§3.1.2 extension)" (fun () ->
        (* (v | w) ⊆ c constrains both variables *)
        let s =
          mk_system
            [ ("c", "a{1,3}") ]
            [ { lhs = Union (Var "v", Var "w"); rhs = "c" } ]
        in
        match solve_exn s with
        | [ a ] ->
            check_lang "v" "a{1,3}" (find a "v");
            check_lang "w" "a{1,3}" (find a "w")
        | sols -> Alcotest.failf "expected 1 solution, got %d" (List.length sols));
    test "union distributes over concatenation" (fun () ->
        (* (p|q) . v ⊆ c: v must be safe after both prefixes *)
        let s =
          mk_system
            [ ("p", "x"); ("q", "xx"); ("c", "x{2,3}") ]
            [ { lhs = Concat (Union (Const "p", Const "q"), Var "v"); rhs = "c" } ]
        in
        let sols = solve_exn s in
        check_bool "nonempty" true (sols <> []);
        List.iter
          (fun a ->
            check_bool "satisfying" true (Validate.satisfying s a);
            (* x·v ⊆ x{2,3} gives v ⊆ x{1,2}; xx·v ⊆ x{2,3} gives
               v ⊆ x{0,1}; both ⇒ v = x *)
            check_lang "v" "x" (find a "v"))
          sols);
    test "union in validate matches Ops.union semantics" (fun () ->
        let s =
          mk_system
            [ ("ca", "a"); ("cb", "b"); ("c", "a|b") ]
            [ { lhs = Union (Const "ca", Const "cb"); rhs = "c" } ]
        in
        check_int "sat, no vars" 1 (List.length (solve_exn s)));
    test "first-solution mode" (fun () ->
        match Solver.run (Solver.Config.make ~max_solutions:1 ()) fig6_system with
        | Ok (Solver.Sat [ a ]) ->
            check_bool "satisfying" true (Validate.satisfying fig6_system a)
        | _ -> Alcotest.fail "expected exactly one solution");
    test "gci compacts each distinct slice once per group" (fun () ->
        (* The Fig. 12 secure row, scaled down: one variable behind a
           long literal in three concatenations, each under an
           unanchored keyword constant, so the variable is the
           intersection of one slice per root in every ε-cut
           combination. *)
        let lit =
          String.make 167 'x' ^ " SELECT * FROM news WHERE id=nid_"
        in
        (* a fresh domain has its own metrics registry and store, so
           the histogram maxima below cover this system alone; the
           system's handles are built there too *)
        Domain.join
        @@ Domain.spawn
        @@ fun () ->
        let s =
          System.make_exn
            ~consts:
              [
                ("lit", System.const_of_word lit);
                ("digit", re ".*[0-9]");
                ("from", re ".*FROM.*");
                ("where", re ".*WHERE.*");
                ("quote", re ".*'.*");
              ]
            ~constraints:
              [
                { lhs = Var "v"; rhs = "digit" };
                { lhs = Concat (Const "lit", Var "v"); rhs = "from" };
                { lhs = Concat (Const "lit", Var "v"); rhs = "where" };
                { lhs = Concat (Const "lit", Var "v"); rhs = "quote" };
              ]
        in
        let module Snapshot = Telemetry.Metrics.Snapshot in
        let largest_product () =
          List.fold_left
            (fun acc (name, labels, (h : Snapshot.histogram_stat)) ->
              if name = "automata.product.states" && labels = [ ("dir", "out") ]
              then max acc h.max
              else acc)
            0.0
            (Snapshot.histograms (Snapshot.of_default ()))
        in
        let _, census = Solver.cut_census (Solver.Config.make ~analyze:false ()) s in
        let largest_root = largest_product () in
        let before = Snapshot.of_default () in
        (* without the analyzer: it would discharge the two keyword
           constraints the literal already meets, leaving one root *)
        let sols =
          match Solver.run (Solver.Config.make ~analyze:false ()) s with
          | Ok (Solver.Sat sols) -> sols
          | Ok (Solver.Unsat { reason; _ }) ->
              Alcotest.failf "unexpected unsat: %s" (Solver.unsat_message reason)
          | Error e -> Alcotest.failf "%s" (Solver.Error.to_string e)
        in
        let diff = Snapshot.diff ~after:(Snapshot.of_default ()) ~before in
        let slices outcome =
          Snapshot.counter_value ~labels:[ ("outcome", outcome) ] diff
            "solver.gci.slices"
        in
        check_bool "solutions" true (sols <> []);
        List.iter
          (fun a -> check_bool "satisfying" true (Validate.satisfying s a))
          sols;
        (* each concatenation's candidates have distinct targets, and
           the variable's slice runs from a target to the root's final *)
        let combinations = List.fold_left (fun acc (_, n) -> acc * n) 1 census in
        check_bool "several combinations" true (combinations > 1);
        check_int "one miss per distinct slice"
          (List.fold_left (fun acc (_, n) -> acc + n) 0 census)
          (slices "miss");
        check_int "every other lookup hits"
          (combinations * List.length census)
          (slices "miss" + slices "hit");
        check_bool "no gci product outgrows the largest root" true
          (largest_product () <= largest_root));
  ]

(* ------------------------------------------------------------------ *)
(* Residual / maximization                                            *)

let residual_tests =
  [
    test "max_middle basic" (fun () ->
        (* {w | a·w·b ∈ L(a(ab)*b)} = (ab)*: stripping the fixed a/b
           context leaves w ∈ (ab)* *)
        let m =
          Automata.Store.nfa
            (Residual.max_middle ~pre:(re "a") ~post:(re "b")
               ~upper:(re "a(ab)*b"))
        in
        check_bool "eps" true (Nfa.accepts m "");
        check_bool "ab" true (Nfa.accepts m "ab");
        check_bool "abab" true (Nfa.accepts m "abab");
        check_bool "ba" false (Nfa.accepts m "ba");
        check_bool "a" false (Nfa.accepts m "a"));
    test "max_middle with multiple pre words" (fun () ->
        (* pre = a|aa, upper = a{1,2}b* ⇒ w must work after both *)
        let m =
          Automata.Store.nfa
            (Residual.max_middle ~pre:(re "a|aa") ~post:(re "b")
               ~upper:(re "a{1,2}b*"))
        in
        check_bool "b*" true (Nfa.accepts m "bbb");
        check_bool "a fails (aaa not in upper)" false (Nfa.accepts m "a"));
    test "empty pre is unconstraining" (fun () ->
        let m =
          Automata.Store.nfa
            (Residual.max_middle
               ~pre:(Automata.Store.intern Nfa.empty_lang)
               ~post:(re "b") ~upper:(re "ab"))
        in
        check_bool "sigma-star" true (Lang.equal m Nfa.sigma_star));
    test "run joins a literal run into one word" (fun () ->
        let h = Residual.run [ Store.of_word "nid"; Store.of_word "_"; Store.of_word "7" ] in
        check_bool "word" true (Store.word h = Some "nid_7");
        check_bool "language" true (Store.equal h (Store.of_word "nid_7")));
    test "run of one leaf is that leaf" (fun () ->
        let h = re "a|b" in
        check_bool "same handle" true (Residual.run [ h ] == h);
        check_bool "no leaves is epsilon" true
          (Store.equal (Residual.run []) (Store.of_word "")));
    test "run of a mixed run is the concatenation" (fun () ->
        let leaves = [ Store.of_word "x"; re "y*"; Store.of_word "z" ] in
        let h = Residual.run leaves in
        check_bool "not a word" true (Store.word h = None);
        check_bool "language" true (Store.equal h (re "xy*z")));
    test "bound with no context is the upper bound itself" (fun () ->
        let upper = re "a(ab)*b" in
        check_bool "same handle" true (Residual.bound ~pre:[] ~post:[] ~upper == upper);
        (* a literal run and its concatenation pose the same residual *)
        check_bool "literal run" true
          (Store.equal
             (Residual.bound ~pre:[ Store.of_word "a"; Store.of_word "a" ] ~post:[]
                ~upper)
             (Residual.max_middle
                ~pre:(Store.concat_lang (Store.of_word "a") (Store.of_word "a"))
                ~post:(Store.of_word "") ~upper)));
    test "maximize grows to the paper's merged solution" (fun () ->
        let s =
          mk_system
            [ ("c1", "x(yy)+"); ("c2", "(yy)*z"); ("c3", "xyyz|xyyyyz") ]
            [
              { lhs = Var "v1"; rhs = "c1" };
              { lhs = Var "v2"; rhs = "c2" };
              { lhs = Concat (Var "v1", Var "v2"); rhs = "c3" };
            ]
        in
        (* start from the narrow slice [xyyyy, z]; maximize must merge
           in xyy, yielding the paper's A2 *)
        let a =
          Assignment.of_list [ ("v1", re "xyyyy"); ("v2", re "z") ]
        in
        let m = Residual.(maximize (index s)) a in
        check_lang "v1" "x(yy|yyyy)" (find m "v1");
        check_lang "v2" "z" (find m "v2"));
    test "keyed handles are not re-keyed on a warm store" (fun () ->
        (* assignments bind handles, so maximizing, pruning and
           validating pass them along: once the store is warm, none of
           the three pays a canonical key again *)
        let s =
          mk_system
            [ ("c1", "x(yy)+"); ("c2", "(yy)*z"); ("c3", "xyyz|xyyyyz") ]
            [
              { lhs = Var "v1"; rhs = "c1" };
              { lhs = Var "v2"; rhs = "c2" };
              { lhs = Concat (Var "v1", Var "v2"); rhs = "c3" };
            ]
        in
        let narrow = Assignment.of_list [ ("v1", re "xyyyy"); ("v2", re "z") ] in
        let other = Assignment.of_list [ ("v1", re "xyy"); ("v2", re "z") ] in
        let keyed () =
          match
            Telemetry.Metrics.Snapshot.timer_stat
              ~labels:[ ("op", "intern") ]
              (Telemetry.Metrics.Snapshot.of_default ())
              "store.ledger.key"
          with
          | Some st -> st.Telemetry.Metrics.Snapshot.count
          | None -> 0
        in
        let work () =
          let grown = Residual.(maximize (index s)) narrow in
          ( Assignment.prune_subsumed [ narrow; other; grown ],
            Validate.satisfying s grown )
        in
        ignore (work ());
        (* rotate the store's small pointer-identity cache so a
           re-intern of a handle's own machine would pay its key *)
        for i = 1 to 16 do
          ignore (Automata.Store.intern (Nfa.of_word (string_of_int i)))
        done;
        let before = keyed () in
        let kept, satisfying = work () in
        check_int "keyed interns" 0 (keyed () - before);
        check_int "only the grown disjunct is kept" 1 (List.length kept);
        check_bool "grown disjunct satisfies" true satisfying);
  ]

(* Reference copies of the residual constructions before the
   occurrence index, the one-product [Good] and the minimal DFA:
   [max_middle] ran on the raw determinization of the upper bound,
   reached [T₀] by a product search even for a literal prefix, and
   decided [Good] with one determinization and one DFA inclusion per
   state, and [maximize] rescanned every constraint for every
   variable. The properties below hold the indexed versions to them. *)
module Reference = struct
  module Dfa = Automata.Dfa
  module Store = Automata.Store
  module IS = Set.Make (Int)

  let reach_set (dfa : Dfa.t) (lang : Nfa.t) =
    let visited = Hashtbl.create 64 in
    let worklist = Queue.create () in
    let push pair =
      if not (Hashtbl.mem visited pair) then begin
        Hashtbl.add visited pair ();
        Queue.add pair worklist
      end
    in
    push (Nfa.start lang, Dfa.start dfa);
    let acc = ref IS.empty in
    while not (Queue.is_empty worklist) do
      let n, d = Queue.take worklist in
      if n = Nfa.final lang then acc := IS.add d !acc;
      List.iter (fun n' -> push (n', d)) (Nfa.eps_transitions_from lang n);
      List.iter
        (fun (cs, n') ->
          List.iter
            (fun (cs', d') -> if Charset.intersects cs cs' then push (n', d'))
            (Dfa.transitions dfa d))
        (Nfa.char_transitions lang n)
    done;
    !acc

  let universal_subset_machine (dfa : Dfa.t) t0 good =
    let b = Nfa.Builder.create () in
    let final = Nfa.Builder.add_state b in
    let table = Hashtbl.create 64 in
    let worklist = Queue.create () in
    let materialize set =
      let key = IS.elements set in
      match Hashtbl.find_opt table key with
      | Some q -> q
      | None ->
          let q = Nfa.Builder.add_state b in
          Hashtbl.add table key q;
          if IS.subset set good then Nfa.Builder.add_eps b q final;
          Queue.add (set, q) worklist;
          q
    in
    let start = materialize t0 in
    while not (Queue.is_empty worklist) do
      let set, src = Queue.take worklist in
      let labels =
        IS.fold (fun q acc -> List.map fst (Dfa.transitions dfa q) @ acc) set []
      in
      List.iter
        (fun block ->
          let c = Charset.choose block in
          let image =
            IS.fold
              (fun q acc ->
                match Dfa.step dfa q c with
                | Some q' -> IS.add q' acc
                | None -> acc)
              set IS.empty
          in
          Nfa.Builder.add_trans b src block (materialize image))
        (Charset.refine labels)
    done;
    Nfa.Builder.finish b ~start ~final

  let max_middle ~pre ~post ~upper =
    if Store.is_empty pre || Store.is_empty post then Nfa.sigma_star
    else
      let dfa = Dfa.complement (Dfa.complement (Dfa.of_nfa (Store.nfa upper))) in
      let t0 = reach_set dfa (Store.nfa pre) in
      if IS.is_empty t0 then Nfa.sigma_star
      else begin
        let post_dfa = Dfa.of_nfa (Store.nfa post) in
        let as_nfa = Dfa.to_nfa dfa in
        let good =
          List.fold_left
            (fun acc q ->
              let from_q = Nfa.induce_from_start as_nfa q in
              if Dfa.subset post_dfa (Dfa.of_nfa from_q) then IS.add q acc
              else acc)
            IS.empty
            (List.init (Dfa.num_states dfa) Fun.id)
        in
        universal_subset_machine dfa t0 good
      end

  let leaf_handle system a = function
    | System.Const c -> System.const_handle system c
    | System.Var v -> Assignment.find a v
    | System.Concat _ | System.Union _ -> assert false

  let alternative_bounds system a v upper alternative =
    let arr = Array.of_list (System.leaves alternative) in
    let n = Array.length arr in
    let side lo hi =
      let rec build j h =
        if j > hi then h
        else build (j + 1) (Store.concat_lang h (leaf_handle system a arr.(j)))
      in
      build lo (Store.of_word "")
    in
    let rec collect i acc =
      if i >= n then acc
      else if arr.(i) = System.Var v then
        let pre = side 0 (i - 1) and post = side (i + 1) (n - 1) in
        collect (i + 1) (Residual.max_middle ~pre ~post ~upper :: acc)
      else collect (i + 1) acc
    in
    collect 0 []

  let maximize_var system a v =
    match
      List.concat_map
        (fun { System.lhs; rhs } ->
          List.concat_map
            (alternative_bounds system a v (System.const_handle system rhs))
            (System.expand_unions lhs))
        (System.constraints system)
    with
    | [] -> Assignment.find a v
    | first :: rest -> List.fold_left Store.inter_lang first rest

  let maximize system a =
    let vars = Assignment.variables a in
    let rec loop a iterations =
      let a', grew =
        List.fold_left
          (fun (a, grew) v ->
            let current = Assignment.find a v in
            let bigger = maximize_var system a v in
            if Store.subset bigger current then (a, grew)
            else
              let candidate =
                Assignment.of_list
                  ((v, Store.union_lang current bigger)
                  :: List.remove_assoc v (Assignment.bindings a))
              in
              if Validate.satisfying system candidate then (candidate, true)
              else (a, grew))
          (a, false) vars
      in
      if grew && iterations < 16 then loop a' (iterations + 1) else a'
    in
    loop a 0
end

let residual_props =
  let module Store = Automata.Store in
  let operand =
    QCheck2.Gen.(
      frequency
        [
          (6, nfa_gen);
          (1, return Nfa.empty_lang);
          (1, return Nfa.sigma_star);
        ])
  in
  let triple = QCheck2.Gen.triple operand operand nfa_gen in
  (* Systems over three variables and five constants, with repeated
     occurrences of one variable, unions and shared variables. *)
  let consts =
    [
      ("c0", "a*");
      ("c1", "(ab)*");
      ("c2", "[ab]{0,3}");
      ("c3", "a|b|ab");
      ("c4", "b");
      ("c5", "[ab]*");
    ]
  in
  let system_gen =
    QCheck2.Gen.(
      let leaf =
        oneof
          [
            map (fun v -> System.Var v) (oneofl [ "v1"; "v2"; "v3" ]);
            map (fun c -> System.Const c) (oneofl [ "c3"; "c4" ]);
          ]
      in
      let expr =
        sized_size (int_bound 3)
        @@ fix (fun self n ->
               if n = 0 then leaf
               else
                 frequency
                   [
                     (2, leaf);
                     (3, map2 (fun a b -> System.Concat (a, b)) (self (n / 2)) (self (n / 2)));
                     (1, map2 (fun a b -> System.Union (a, b)) (self (n / 2)) (self (n / 2)));
                   ])
      in
      let constr =
        map2
          (fun lhs rhs -> { System.lhs; rhs })
          expr
          (oneofl [ "c0"; "c1"; "c2"; "c5" ])
      in
      let* constraints = list_size (int_range 1 4) constr in
      (* one constraint repeats a variable, so growths need the
         re-check *)
      let* repeated = oneofl [ "v1"; "v2"; "v3" ] in
      let* rhs = oneofl [ "c2"; "c5" ] in
      let repeat =
        { System.lhs = Concat (Var repeated, Concat (Const "c4", Var repeated)); rhs }
      in
      let* bound = list_repeat 3 (oneofl [ ""; "a"; "ab"; "b"; "aba" ]) in
      let s = mk_system consts (repeat :: constraints) in
      let a =
        Assignment.of_list
          (List.mapi
             (fun i v -> (v, Store.of_word (List.nth bound i)))
             (System.variables s))
      in
      return (s, a))
  in
  let print_system (s, _) = Fmt.str "%a" System.pp s in
  [
    qtest ~count:150 "residual: max_middle equals the per-state construction"
      triple (fun (pre, post, upper) ->
        let pre = Store.intern pre
        and post = Store.intern post
        and upper = Store.intern upper in
        Store.equal
          (Residual.max_middle ~pre ~post ~upper)
          (Store.intern (Reference.max_middle ~pre ~post ~upper)));
    (* [pre] a literal, a prefix of a word of [upper] half the time, so
       the walk to [T₀] lands on a state that tells residuals apart *)
    qtest ~count:300 "residual: a word prefix walks to the raw DFA's residual"
      QCheck2.Gen.(
        let* upper = nfa_gen in
        let* w = oneof [ word_gen; word_for upper ] in
        let* k = int_bound (String.length w) in
        let* post = oneof [ return (Nfa.of_word ""); nfa_gen ] in
        return (String.sub w 0 k, post, upper))
      (fun (w, post, upper) ->
        let pre = Store.of_word w
        and post = Store.intern post
        and upper = Store.intern upper in
        Option.is_some (Store.word pre)
        && Store.equal
             (Residual.max_middle ~pre ~post ~upper)
             (Store.intern (Reference.max_middle ~pre ~post ~upper)));
    qtest ~count:200
      "residual: multi-word prefixes and a non-empty post match the raw DFA's residual"
      QCheck2.Gen.(
        let* upper = nfa_gen in
        let* words = list_size (int_range 2 4) (oneof [ word_gen; word_for upper ]) in
        let* post = nfa_gen in
        return (words, post, upper))
      (fun (words, post, upper) ->
        let pre =
          Store.intern
            (List.fold_left
               (fun acc w -> Automata.Ops.union_lang acc (Nfa.of_word w))
               Nfa.empty_lang words)
        and post = Store.intern post
        and upper = Store.intern upper in
        Store.equal
          (Residual.max_middle ~pre ~post ~upper)
          (Store.intern (Reference.max_middle ~pre ~post ~upper)));
    test "a wide system solves to disjuncts the full scan leaves as they are"
      (fun () ->
        (* the shape of a wide sink system: one filter per input the
           path reads, and a sink over two of them *)
        let n = 200 in
        let filters = [| "[0-9]+"; "[a-z']*"; "x.*" |] in
        let consts =
          ("lit", "id=") :: ("attack", ".*'.*")
          :: List.init n (fun i ->
                 (Printf.sprintf "c%d" i, filters.(i mod Array.length filters)))
        in
        let x i = System.Var (Printf.sprintf "x%d" i) in
        let s =
          mk_system consts
            ({
               System.lhs =
                 Concat (Concat (Const "lit", x 1), Concat (Const "lit", x 2));
               rhs = "attack";
             }
            :: List.init n (fun i ->
                   { System.lhs = x i; rhs = Printf.sprintf "c%d" i }))
        in
        let index = Residual.index s in
        check_int "vars" n (Residual.vars index);
        check_int "occurrences" (n + 2) (Residual.occurrences index);
        match run_solver s with
        | Solver.Unsat _ -> Alcotest.fail "the sink is reachable"
        | Solver.Sat sols ->
            check_bool "solutions" true (sols <> []);
            List.iter
              (fun d ->
                check_bool "maximal under the full scan" true
                  (Assignment.equal (Reference.maximize s d) d);
                check_bool "maximal under the index" true
                  (Assignment.equal (Residual.maximize index d) d);
                (* narrowed to one word per variable, both grow it back
                   the same way *)
                let narrow =
                  Assignment.of_list
                    (List.map
                       (fun (v, w) -> (v, Automata.Store.of_word w))
                       (Option.get (Assignment.witness d)))
                in
                check_bool "same growth" true
                  (Assignment.equal
                     (Residual.maximize index narrow)
                     (Reference.maximize s narrow)))
              sols);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:80 ~print:print_system
         ~name:"residual: indexed maximize equals the full scan" system_gen
         (fun (s, a) ->
           (* the drawn assignment, which may violate the system, and
              each solver disjunct narrowed to one word per variable,
              which satisfies it and so has room to grow; a solve the
              combination cap stopped has no disjunct to narrow *)
           let narrowed =
             match Solver.run Solver.Config.default s with
             | Error (Solver.Error.Budget_exceeded Automata.Budget.Combination_limit)
             | Ok (Solver.Unsat _) ->
                 []
             | Error e -> Alcotest.failf "%s" (Solver.Error.to_string e)
             | Ok (Solver.Sat sols) ->
                 List.filter_map
                   (fun d ->
                     Option.map
                       (fun ws ->
                         Assignment.of_list
                           (List.map
                              (fun (v, w) -> (v, Automata.Store.of_word w))
                              ws))
                       (Assignment.witness d))
                   sols
           in
           let index = Residual.index s in
           List.for_all
             (fun a ->
               Assignment.equal (Residual.maximize index a)
                 (Reference.maximize s a))
             (a :: narrowed)));
  ]

let solver_props =
  let draw_gen =
    QCheck2.Gen.(
      let pool = [ "a*"; "ab|b*"; "(ab)*"; "a+b?"; "[ab]{1,3}"; "b+a*"; "a|b|ab" ] in
      let* r1 = oneofl pool in
      let* r2 = oneofl pool in
      let* r3 = oneofl pool in
      let* r4 = oneofl pool in
      return (r1, r2, r3 ^ "|" ^ r4))
  in
  let sys_gen =
    QCheck2.Gen.map
      (fun (r1, r2, r3) ->
        mk_system
          [ ("c1", r1); ("c2", r2); ("c3", r3) ]
          [
            { lhs = Var "v1"; rhs = "c1" };
            { lhs = Var "v2"; rhs = "c2" };
            { lhs = Concat (Var "v1", Var "v2"); rhs = "c3" };
          ])
      draw_gen
  in
  (* the same draw as the text a client sends, so that parsing goes
     through the store's text table too *)
  let text_of (r1, r2, r3) =
    Printf.sprintf
      "let c1 = /^(%s)$/;\nlet c2 = /^(%s)$/;\nlet c3 = /^(%s)$/;\n\
       v1 <= c1;\nv2 <= c2;\nv1 . v2 <= c3;\n"
      r1 r2 r3
  in
  let rendered text =
    match run_solver (Dprle.Sysparse.parse_exn text) with
    | Solver.Unsat r -> [ Solver.unsat_message r.Solver.reason ]
    | Solver.Sat sols ->
        List.map
          (fun a -> Fmt.str "%a | %a" Assignment.pp a Assignment.pp_witnesses a)
          sols
  in
  [
    qtest ~count:40 "solver: same disjuncts cold, warm and with the store off"
      draw_gen (fun draw ->
        let text = text_of draw in
        Automata.Store.clear ();
        let cold = rendered text in
        let warm = rendered text in
        let off =
          Fun.protect
            ~finally:(fun () -> Automata.Store.set_enabled true)
            (fun () ->
              Automata.Store.set_enabled false;
              rendered text)
        in
        cold = warm && cold = off);
    qtest ~count:40 "solver: all disjuncts satisfy" sys_gen (fun s ->
        match run_solver s with
        | Solver.Unsat _ -> true
        | Solver.Sat sols -> List.for_all (Validate.satisfying s) sols);
    qtest ~count:40 "solver: disjuncts pairwise incomparable" sys_gen (fun s ->
        match run_solver s with
        | Solver.Unsat _ -> true
        | Solver.Sat sols -> Validate.pairwise_incomparable sols);
    qtest ~count:25 "solver: maximality probe" sys_gen (fun s ->
        match run_solver s with
        | Solver.Unsat _ -> true
        | Solver.Sat sols ->
            List.for_all (fun a -> Validate.maximal_probe ~samples:3 s a) sols);
    qtest ~count:40 "solver: coverage of the concat language" sys_gen (fun s ->
        (* every word of (c1∘c2) ∩ c3 appears in v1∘v2 of some disjunct *)
        let const c = Automata.Store.nfa (System.const_handle s c) in
        let c1 = const "c1" and c2 = const "c2" and c3 = const "c3" in
        let target = Ops.inter_lang (Ops.concat_lang c1 c2) c3 in
        match run_solver s with
        | Solver.Unsat _ -> Nfa.is_empty_lang target
        | Solver.Sat sols ->
            let covered =
              List.fold_left
                (fun acc a ->
                  Ops.union_lang acc
                    (Ops.concat_lang (find a "v1")
                       (find a "v2")))
                Nfa.empty_lang sols
            in
            Lang.equal covered target);
    qtest ~count:40 "solver: unsat iff concat language empty" sys_gen (fun s ->
        let const c = Automata.Store.nfa (System.const_handle s c) in
        let c1 = const "c1" and c2 = const "c2" and c3 = const "c3" in
        let target = Ops.inter_lang (Ops.concat_lang c1 c2) c3 in
        match run_solver s with
        | Solver.Unsat _ -> Nfa.is_empty_lang target
        | Solver.Sat sols -> sols <> [] && not (Nfa.is_empty_lang target));
  ]

let report_tests =
  [
    test "report on the motivating system" (fun () ->
        (* the default solve binds v1 in closed form: no graph *)
        let outcome, r =
          Result.get_ok (Dprle.Report.solve_with_report fig6_system)
        in
        (match outcome with
        | Solver.Sat [ _ ] -> ()
        | _ -> Alcotest.fail "expected one solution (closed form)");
        check_int "no graph" 0 r.nodes;
        check_int "solutions (closed form)" 1 r.solutions;
        (* the paper's pipeline builds the Fig. 6 graph and cuts it *)
        let outcome, r =
          Result.get_ok
            (Dprle.Report.solve_with_report
               ~config:(Solver.Config.make ~analyze:false ())
               fig6_system)
        in
        (match outcome with
        | Solver.Sat [ _ ] -> ()
        | _ -> Alcotest.fail "expected one solution");
        check_int "nodes" 5 r.nodes;
        check_int "subsets" 2 r.subset_edges;
        check_int "concats" 1 r.concat_pairs;
        check_int "groups" 1 r.groups;
        check_int "solutions" 1 r.solutions;
        check_bool "cuts counted" true (r.cut_candidates >= 1);
        check_bool "work measured" true (r.automata.visited > 0));
    test "report on fig9: combination width" (fun () ->
        let s =
          mk_system
            [
              ("ca", "o(pp)+"); ("cb", "p*(qq)+"); ("cc", "q*r");
              ("c1", "op{5}q*"); ("c2", "p*q{4}r");
            ]
            [
              { lhs = Var "va"; rhs = "ca" };
              { lhs = Var "vb"; rhs = "cb" };
              { lhs = Var "vc"; rhs = "cc" };
              { lhs = Concat (Var "va", Var "vb"); rhs = "c1" };
              { lhs = Concat (Var "vb", Var "vc"); rhs = "c2" };
            ]
        in
        let _, r =
          Result.get_ok (Dprle.Report.solve_with_report s)
        in
        (* at least the paper's 2×2 cut combinations (Thompson-built
           machines carry extra ε-cut images of the same solutions) *)
        check_bool "combinations" true (r.max_group_combinations >= 4);
        check_int "groups" 1 r.groups;
        check_int "solutions" 4 r.solutions);
    test "cut census on unsat constant system is empty" (fun () ->
        let s =
          mk_system
            [ ("sub", "ba"); ("super", "a.*") ]
            [ { lhs = Const "sub"; rhs = "super" } ]
        in
        List.iter
          (fun analyze ->
            let g, census = Solver.cut_census (Solver.Config.make ~analyze ()) s in
            check_int "nothing built" 0 (List.length g.Depgraph.nodes);
            check_int "empty" 0 (List.length census))
          [ true; false ]);
  ]

(* Random systems with two coupled concatenations — the gci stress
   shape of Fig. 9 — validated for soundness and witness concreteness. *)
let chained_props =
  let sys_gen =
    QCheck2.Gen.(
      let pool = [ "a*"; "ab|b"; "(ab)*"; "a+b?"; "[ab]{1,2}"; "b+a*" ] in
      let* r1 = oneofl pool in
      let* r2 = oneofl pool in
      let* r3 = oneofl pool in
      let* r4 = oneofl pool in
      let* r5 = oneofl pool in
      let* nested = QCheck2.Gen.bool in
      let constraints =
        if nested then
          [
            { System.lhs = System.Var "v1"; rhs = "c1" };
            { System.lhs = System.Var "v2"; rhs = "c2" };
            { System.lhs = System.Var "v3"; rhs = "c3" };
            {
              System.lhs =
                System.Concat (Concat (Var "v1", Var "v2"), Var "v3");
              rhs = "c4";
            };
          ]
        else
          [
            { System.lhs = System.Var "v1"; rhs = "c1" };
            { System.lhs = System.Var "v2"; rhs = "c2" };
            { System.lhs = System.Var "v3"; rhs = "c3" };
            { System.lhs = System.Concat (Var "v1", Var "v2"); rhs = "c4" };
            { System.lhs = System.Concat (Var "v2", Var "v3"); rhs = "c5" };
          ]
      in
      return
        (mk_system
           [ ("c1", r1); ("c2", r2); ("c3", r3); ("c4", r4); ("c5", r5) ]
           constraints))
  in
  [
    qtest ~count:25 "chained systems: every disjunct satisfies" sys_gen
      (fun s ->
        match run_solver ~max_solutions:8 s with
        | Solver.Unsat _ -> true
        | Solver.Sat sols -> List.for_all (Validate.satisfying s) sols);
    qtest ~count:25 "chained systems: witnesses check concretely" sys_gen
      (fun s ->
        match run_solver ~max_solutions:4 s with
        | Solver.Unsat _ -> true
        | Solver.Sat sols ->
            List.for_all
              (fun a ->
                match Assignment.witness a with
                | None -> false
                | Some words -> Dprle.Bounded.check s words)
              sols);
  ]

(* ------------------------------------------------------------------ *)
(* Closed form for constant-prefixed variables                        *)

let closed_form_props =
  let literals = [ ("w0", "a"); ("w1", "ab"); ("w2", "b'") ] in
  let prefixes = [ ("m0", "a|ab"); ("m1", "b*"); ("m2", "(ab)*") ] in
  let bounds =
    [
      ("u0", ".*'.*"); ("u1", "a*b*"); ("u2", "[ab]*'"); ("u3", "(a|b)(a|b|')*");
      ("u4", "ab(a|b)*|b'a*"); ("u5", "[ab']{0,4}");
    ]
  in
  let consts () =
    (* [w3] serves the fixed cases only, not the generator *)
    List.map (fun (n, w) -> (n, System.const_of_word w)) (literals @ [ ("w3", "b") ])
    @ List.map (fun (n, r) -> (n, re r)) (prefixes @ bounds)
  in
  (* one alternative [c1·…·ck·v], k ≤ 2, literal or multi-word *)
  let alternative vars =
    QCheck2.Gen.(
      let* v = oneofl vars in
      let* pre = list_size (int_bound 2) (oneofl (List.map fst (literals @ prefixes))) in
      (* left-nested, as the parser builds it *)
      return
        (match List.map (fun c -> System.Const c) pre with
        | [] -> System.Var v
        | first :: rest ->
            System.Concat
              (List.fold_left (fun acc l -> System.Concat (acc, l)) first rest, Var v)))
  in
  let constr vars =
    QCheck2.Gen.(
      let* lhs =
        frequency
          [
            (3, alternative vars);
            (1, map2 (fun a b -> System.Union (a, b)) (alternative vars) (alternative vars));
          ]
      in
      let* rhs = oneofl (List.map fst bounds) in
      return { System.lhs; rhs })
  in
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 4 in
      let vars = List.init n (Printf.sprintf "v%d") in
      (* every variable occurs at least once *)
      let* own = flatten_l (List.map (fun v -> constr [ v ]) vars) in
      let* extra = list_size (int_bound 2) (constr vars) in
      return (vars, own @ extra))
  in
  let print (_, cs) = Fmt.str "%a" Fmt.(list ~sep:semi System.pp_constr) cs in
  let system cs = System.make_exn ~consts:(consts ()) ~constraints:cs in
  let run ~analyze s =
    match Solver.run (Solver.Config.make ~analyze ()) s with
    | Ok o -> o
    | Error e -> Alcotest.failf "%s" (Solver.Error.to_string e)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100 ~print
         ~name:"closed form: bindings exact to length 3, equal to --no-analyze" gen
         (fun (vars, cs) ->
           let s = system cs in
           let default = run ~analyze:true s and ablated = run ~analyze:false s in
           match (default, ablated) with
           | Solver.Unsat _, Solver.Unsat _ -> true
           | Solver.Sat [ a ], Solver.Sat [ b ] ->
               let alphabet = Dprle.Bounded.alphabet s in
               let words =
                 List.concat_map
                   (fun len ->
                     let rec go k =
                       if k = 0 then [ "" ]
                       else
                         List.concat_map
                           (fun w -> List.map (fun c -> w ^ String.make 1 c) alphabet)
                           (go (k - 1))
                     in
                     go len)
                   [ 0; 1; 2; 3 ]
               in
               List.for_all
                 (fun v ->
                   (* [v]'s constraints are its alternatives: no other
                      variable occurs in them *)
                   let own =
                     System.with_constraints s
                       (List.concat_map
                          (fun { System.lhs; rhs } ->
                            List.filter_map
                              (fun alt ->
                                if List.mem v (System.expr_variables alt) then
                                  Some { System.lhs = alt; rhs }
                                else None)
                              (System.expand_unions lhs))
                          cs)
                   in
                   let h = Assignment.find a v in
                   Automata.Store.equal h (Assignment.find b v)
                   && List.for_all
                        (fun w ->
                          Nfa.accepts (Automata.Store.nfa h) w
                          = Dprle.Bounded.check own [ (v, w) ])
                        words)
                 vars
           | _ -> false));
    test "a two-literal prefix binds its residual" (fun () ->
        (* "a" . "b" . v <= u4: the run joins into the word "ab" *)
        let s =
          system
            [ { lhs = Concat (Concat (Const "w0", Const "w3"), Var "v0"); rhs = "u4" } ]
        in
        match (run ~analyze:true s, run ~analyze:false s) with
        | Solver.Sat [ a ], Solver.Sat [ b ] ->
            check_lang "v0" "(a|b)*" (find a "v0");
            check_bool "equal to --no-analyze" true
              (Store.equal (Assignment.find a "v0") (Assignment.find b "v0"))
        | _ -> Alcotest.fail "expected one solution each way");
    test "a variable whose constraints are all discharged is Σ*" (fun () ->
        (* every word of "b'"·Σ* holds a quote, so the analyzer drops
           the one constraint on v0; the answer still binds it *)
        let s = system [ { lhs = Concat (Const "w2", Var "v0"); rhs = "u0" } ] in
        match run ~analyze:true s with
        | Solver.Sat [ a ] ->
            check_bool "sigma-star" true
              (Store.equal (Assignment.find a "v0") (Store.top ()))
        | _ -> Alcotest.fail "expected one solution");
  ]

let suite =
  [
    ("ci:unit", ci_tests);
    ("solver:chained-props", chained_props);
    ("report:unit", report_tests);
    ("ci:props", ci_props);
    ("depgraph:unit", depgraph_tests);
    ("solver:unit", solver_tests);
    ("residual:unit", residual_tests);
    ("residual:props", residual_props);
    ("solver:props", solver_props);
    ("solver:closed-form", closed_form_props);
  ]
