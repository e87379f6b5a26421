(* The pre-solve analyzer: normalization, bounds propagation, implied-
   constraint discharge, cone-of-influence slicing, and unsat cores —
   plus the invariant everything else rides on: running the analyzer
   never changes the solver's verdict. *)

open Helpers
module System = Dprle.System
module Solver = Dprle.Solver
module Analyze = Dprle.Analyze
module Assignment = Dprle.Assignment
module Validate = Dprle.Validate
module Static = Dprle.Static

let re = System.const_of_regex

let mk_system consts constraints =
  System.make_exn
    ~consts:(List.map (fun (n, r) -> (n, re r)) consts)
    ~constraints

let run_with ~analyze system =
  match Solver.run (Solver.Config.make ~analyze ()) system with
  | Ok outcome -> outcome
  | Error err ->
      Alcotest.failf "unexpected solver error: %s"
        (Solver.Error.to_string err)

let is_sat = function Solver.Sat _ -> true | Solver.Unsat _ -> false

(* ------------------------------------------------------------------ *)
(* Units                                                              *)

let unit_tests =
  [
    test "constant runs fold into one constant" (fun () ->
        let s =
          mk_system
            [ ("p", "nid"); ("q", "_"); ("bound", ".*") ]
            [
              {
                System.lhs = Concat (Const "p", Concat (Const "q", Var "v"));
                rhs = "bound";
              };
            ]
        in
        let a = Analyze.run s in
        (* the stat counts constants merged: the run p·q is 2 *)
        check_int "folded" 2 a.Analyze.stats.Analyze.folded;
        (* the fold is language-preserving: verdicts agree *)
        check_bool "verdict preserved" true
          (is_sat (run_with ~analyze:true s)
          = is_sat (run_with ~analyze:false s)));
    test "discharge drops a constraint implied by a tighter one" (fun () ->
        let s =
          mk_system
            [ ("narrow", "ab"); ("wide", "(a|b)*") ]
            [
              { System.lhs = Var "v"; rhs = "narrow" };
              { System.lhs = Var "v"; rhs = "wide" };
            ]
        in
        let a = Analyze.run s in
        check_int "discharged" 1 a.Analyze.stats.Analyze.discharged;
        check_int "kept" 1 (List.length (System.constraints a.Analyze.system)));
    test "mutually redundant duplicates do not both vanish" (fun () ->
        (* after dedup there is one copy; even with dedup off the
           greedy exclusion would keep one — the system must still
           constrain v *)
        let s =
          mk_system
            [ ("c", "a+") ]
            [
              { System.lhs = Var "v"; rhs = "c" };
              { System.lhs = Var "v"; rhs = "c" };
            ]
        in
        let a = Analyze.run s in
        check_bool "still constrained" true
          (System.constraints a.Analyze.system <> []));
    test "slicing drops goal-independent components with witnesses"
      (fun () ->
        let s =
          mk_system
            [ ("ca", "ab*"); ("cc", "cd?") ]
            [
              { System.lhs = Var "v1"; rhs = "ca" };
              { System.lhs = Var "x"; rhs = "cc" };
            ]
        in
        let a = Analyze.run ~goals:[ "v1" ] s in
        check_bool "x sliced" true
          (List.mem "x" a.Analyze.stats.Analyze.sliced_vars);
        check_int "one constraint sliced" 1
          a.Analyze.stats.Analyze.sliced_constraints;
        check_bool "witness recorded" true
          (List.mem_assoc "x" a.Analyze.witnesses);
        (* witness satisfies the dropped constraint *)
        let w = List.assoc "x" a.Analyze.witnesses in
        check_bool "witness admissible" true
          (Automata.Nfa.accepts (Automata.Store.nfa (re "cd?")) w));
    test "no goals means no slicing" (fun () ->
        let s =
          mk_system
            [ ("ca", "ab*"); ("cc", "cd?") ]
            [
              { System.lhs = Var "v1"; rhs = "ca" };
              { System.lhs = Var "x"; rhs = "cc" };
            ]
        in
        let a = Analyze.run s in
        check_int "nothing sliced" 0
          (List.length a.Analyze.stats.Analyze.sliced_vars));
    test "sliced witnesses rejoin solver assignments" (fun () ->
        let s =
          mk_system
            [ ("ca", "ab*"); ("cc", "cd?") ]
            [
              { System.lhs = Var "v1"; rhs = "ca" };
              { System.lhs = Var "x"; rhs = "cc" };
            ]
        in
        let goaled = System.with_goals s [ "v1" ] in
        match run_with ~analyze:true goaled with
        | Solver.Unsat _ -> Alcotest.fail "expected sat"
        | Solver.Sat sols ->
            check_bool "nonempty" true (sols <> []);
            List.iter
              (fun a ->
                check_bool "x bound in every solution" true
                  (Option.is_some (Assignment.find_opt a "x")))
              sols);
    test "empty-meet refutation names its variable and core" (fun () ->
        let s =
          mk_system
            [ ("digits", "[0-9]+"); ("quote", "'.*") ]
            [
              { System.lhs = Var "v"; rhs = "digits" };
              { System.lhs = Var "v"; rhs = "quote" };
            ]
        in
        match (Analyze.run s).Analyze.refute with
        | None -> Alcotest.fail "expected a refutation"
        | Some { Analyze.cause; core } -> (
            check_int "core size" 2 (List.length core);
            match cause with
            | Analyze.Empty_var v -> check_string "variable" "v" v
            | c ->
                Alcotest.failf "wrong cause: %a" (fun ppf ->
                    Analyze.pp_cause ppf) c));
    test "a core names the constraints as written" (fun () ->
        (* a and b are written alike, so they share one store handle;
           the core still names b, the constant v's constraint reads *)
        let s =
          mk_system
            [ ("a", "x+"); ("b", "x+"); ("c", "y+") ]
            [
              { System.lhs = Var "w"; rhs = "a" };
              { System.lhs = Var "v"; rhs = "b" };
              { System.lhs = Var "v"; rhs = "c" };
            ]
        in
        match (Analyze.run s).Analyze.refute with
        | None -> Alcotest.fail "expected a refutation"
        | Some { Analyze.core; _ } ->
            Alcotest.(check (list string))
              "core" [ "v <= b"; "v <= c" ]
              (List.map (Fmt.str "%a" System.pp_constr) core));
    test "analyzer run is idempotent on its own output" (fun () ->
        let s =
          mk_system
            [ ("ca", "a+b"); ("cb", "(a|b)*"); ("cc", "ab?") ]
            [
              { System.lhs = Var "v1"; rhs = "ca" };
              { System.lhs = Var "v1"; rhs = "cb" };
              { System.lhs = Concat (Var "v1", Var "v2"); rhs = "cc" };
            ]
        in
        let a = Analyze.run s in
        let b = Analyze.run a.Analyze.system in
        check_bool "no refutation appears late"
          (Option.is_none a.Analyze.refute)
          (Option.is_none b.Analyze.refute);
        (* a second pass finds nothing left to do: the fixpoint is
           reached after one run *)
        check_int "no further rewrites" 0
          (b.Analyze.stats.Analyze.folded + b.Analyze.stats.Analyze.deduped
         + b.Analyze.stats.Analyze.discharged);
        check_int "same constraint count"
          (List.length (System.constraints a.Analyze.system))
          (List.length (System.constraints b.Analyze.system)));
    test "minimize_core is 1-minimal against a set oracle" (fun () ->
        let c name = { System.lhs = System.Var name; rhs = name } in
        let all = List.map c [ "a"; "b"; "d"; "e"; "f" ] in
        let names cs = List.map (fun x -> x.System.rhs) cs in
        (* refuted iff the subset still holds both b and e *)
        let check cs =
          List.mem "b" (names cs) && List.mem "e" (names cs)
        in
        let core = Analyze.minimize_core ~check all in
        Alcotest.(check (list string)) "exact core" [ "b"; "e" ] (names core));
  ]

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)

(* Random small systems over a pool of regexes whose pairwise
   intersections are sometimes empty, so both verdicts occur: direct
   bounds, a shared-variable meet, and a two-variable concatenation. *)
let sys_parts_gen =
  QCheck2.Gen.(
    let pool =
      [ "a*"; "a+b"; "(ab)*"; "a|bb"; "[ab]+"; "b(a|b)*"; "[0-9]+"; "'.*";
        "a"; "c+" ]
    in
    let* r1 = oneofl pool in
    let* r2 = oneofl pool in
    let* r3 = oneofl pool in
    let* r4 = oneofl pool in
    let* shared = bool in
    let* with_concat = bool in
    let constrs =
      [
        { System.lhs = System.Var "v1"; rhs = "c1" };
        {
          System.lhs = System.Var (if shared then "v1" else "v2");
          rhs = "c2";
        };
      ]
      @
      if with_concat then
        [
          {
            System.lhs = System.Concat (System.Var "v1", System.Var "v2");
            rhs = "c3";
          };
        ]
      else [ { System.lhs = System.Var "v2"; rhs = "c3" } ]
    in
    return ([ ("c1", r1); ("c2", r2); ("c3", r3); ("c4", r4) ], constrs))

let sys_gen =
  QCheck2.Gen.map
    (fun (consts, constrs) -> mk_system consts constrs)
    sys_parts_gen

(* An equisatisfiable variant: one constraint of a [sys_gen] system
   has its right-hand side pointed at a fresh twin [t] of its constant
   [r], built as the union of [r]'s machine with itself. That is the
   machine [(r)|(r)] would compile to if the regex layer did not fold
   it: another machine, so another store handle, with the same
   language. Gives (original, variant, the two handles). *)
let twin_gen =
  QCheck2.Gen.(
    let* consts, constrs = sys_parts_gen in
    let* i = int_bound (List.length constrs - 1) in
    let original = mk_system consts constrs in
    let h = System.const_handle original (List.nth constrs i).System.rhs in
    let twin =
      let m = Automata.Store.nfa h in
      Automata.Store.intern (Automata.Ops.union_lang m m)
    in
    let variant =
      System.make_exn
        ~consts:(System.constants original @ [ ("t", twin) ])
        ~constraints:
          (List.mapi
             (fun j c -> if j = i then { c with System.rhs = "t" } else c)
             constrs)
    in
    return (original, variant, h, twin))

(* [sys_gen] plus, optionally, a constant-only constraint [c4 ⊆ ci],
   which the analyzer decides by one inclusion *)
let lint_sys_gen =
  QCheck2.Gen.(
    let* s = sys_gen in
    let* extra = option (oneofl [ "c1"; "c2"; "c3" ]) in
    return
      (match extra with
      | None -> s
      | Some rhs ->
          System.make_exn ~consts:(System.constants s)
            ~constraints:
              (System.constraints s @ [ { System.lhs = System.Const "c4"; rhs } ])))

(* the one lint check whose finding says the system is unsatisfiable *)
let unsat_findings s =
  List.filter (fun (f : Static.finding) -> f.check = "unsat-core") (Static.lint s)

let prop_tests =
  [
    qtest ~count:60 "analyzer on/off never changes the verdict" sys_gen
      (fun s -> is_sat (run_with ~analyze:true s)
                = is_sat (run_with ~analyze:false s));
    qtest ~count:60 "sat solutions still satisfy after analysis" sys_gen
      (fun s ->
        match run_with ~analyze:true s with
        | Solver.Unsat _ -> true
        | Solver.Sat sols -> List.for_all (Validate.satisfying s) sols);
    qtest ~count:60 "cores refute; every proper subset is not refuted"
      sys_gen (fun s ->
        match Analyze.run s with
        | { Analyze.refute = None; _ } -> true
        | { Analyze.refute = Some { Analyze.core; _ }; system = norm; _ } ->
            let solve_core cs =
              run_with ~analyze:false (System.with_constraints norm cs)
            in
            (* soundness: the named core alone is truly unsatisfiable *)
            (not (is_sat (solve_core core)))
            (* 1-minimality: dropping any single member leaves a subset
               the analyzer no longer refutes *)
            && List.for_all
                 (fun dropped ->
                   let rest = List.filter (fun c -> c != dropped) core in
                   Option.is_none
                     (Analyze.run (System.with_constraints norm rest))
                       .Analyze.refute)
                 core);
    qtest ~count:60 "an equal-language twin constant changes nothing"
      twin_gen (fun (original, variant, h, h_twin) ->
        let outcome = run_with ~analyze:true variant in
        Automata.Store.id h <> Automata.Store.id h_twin
        && is_sat (run_with ~analyze:true original) = is_sat outcome
        &&
        match outcome with
        | Solver.Unsat _ -> true
        | Solver.Sat sols ->
            List.for_all
              (fun a ->
                match Assignment.witness a with
                | None -> false
                | Some words -> Dprle.Bounded.check variant words)
              sols);
    qtest ~count:60 "analysis result is a sound rewrite" sys_gen (fun s ->
        (* solving the analyzer's residual system (plus its recorded
           witnesses) agrees with solving the original *)
        let a = Analyze.run s in
        match a.Analyze.refute with
        | Some _ -> not (is_sat (run_with ~analyze:false s))
        | None ->
            is_sat (run_with ~analyze:false a.Analyze.system)
            = is_sat (run_with ~analyze:false s));
    qtest ~count:60 "a lint unsat claim is the solver's verdict" lint_sys_gen
      (fun s ->
        unsat_findings s = []
        || not (is_sat (run_with ~analyze:true s) || is_sat (run_with ~analyze:false s)));
    qtest ~count:60 "lint reports the analyzer's refutation exactly once"
      lint_sys_gen (fun s ->
        List.length (unsat_findings s)
        = if Option.is_some (Analyze.run s).Analyze.refute then 1 else 0);
  ]

let suite = [ ("analyze", unit_tests); ("analyze:props", prop_tests) ]
