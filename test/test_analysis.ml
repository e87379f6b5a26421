open Helpers
module Ast = Webapp.Ast
module Attack = Webapp.Attack
module Eval = Webapp.Eval
module Lang_parser = Webapp.Lang_parser
module Cfg = Analysis.Cfg
module Fixpoint = Analysis.Fixpoint
module Store = Automata.Store
module Nfa = Automata.Nfa

let parse = Lang_parser.parse_exn

let loop_source =
  {|$ids = "0";
    while (!preg_match(/^done$/, input("more"))) {
      $ids = $ids . ",0";
    }
    query("SELECT * FROM t WHERE id IN (" . $ids . ")");|}

let fixed_source =
  {|$newsid = input("posted_newsid");
    if (!preg_match(/^[\d]+$/, $newsid)) { exit; }
    $newsid = "nid_" . $newsid;
    query("SELECT * FROM news WHERE newsid=" . $newsid);|}

let broken_source =
  {|$newsid = input("posted_newsid");
    if (!preg_match(/[\d]+$/, $newsid)) { exit; }
    $newsid = "nid_" . $newsid;
    query("SELECT * FROM news WHERE newsid=" . $newsid);|}

let cfg_tests =
  [
    test "an If lowers to a guarded diamond" (fun () ->
        let cfg = Cfg.build (parse fixed_source) in
        check_bool "no loop heads" true
          (Array.for_all (fun b -> not b.Cfg.loop_head) cfg.Cfg.blocks);
        let guarded =
          List.length (List.filter (fun e -> e.Cfg.guard <> None) cfg.Cfg.edges)
        in
        check_int "two guarded edges" 2 guarded;
        check_int "one sink" 1 cfg.Cfg.num_sinks);
    test "a While lowers to a loop head with a back edge" (fun () ->
        let cfg = Cfg.build (parse loop_source) in
        let heads =
          Array.to_list cfg.Cfg.blocks
          |> List.filter (fun b -> b.Cfg.loop_head)
          |> List.map (fun b -> b.Cfg.id)
        in
        check_int "one loop head" 1 (List.length heads);
        let head = List.hd heads in
        check_bool "has a back edge" true
          (List.exists
             (fun e -> e.Cfg.dst = head && e.Cfg.src > head)
             cfg.Cfg.edges));
    test "sink ids line up with Ast.sinks" (fun () ->
        let program =
          parse {|query("a"); if (preg_match(/x/, input("i"))) { query("b"); }|}
        in
        let cfg = Cfg.build program in
        check_int "two sinks" 2 cfg.Cfg.num_sinks;
        let seen = ref [] in
        Array.iter
          (fun b ->
            List.iter
              (function
                | Cfg.Query (id, _) -> seen := id :: !seen | Cfg.Assign _ -> ())
              b.Cfg.instrs)
          cfg.Cfg.blocks;
        check_bool "ids 0 and 1" true (List.sort compare !seen = [ 0; 1 ]));
  ]

let fixpoint_tests =
  [
    test "anchored filter: the sink is proved safe" (fun () ->
        let r =
          Fixpoint.analyze ~attack:Attack.contains_quote (parse fixed_source)
        in
        check_bool "safe" true (Fixpoint.safe_sink_ids r = [ 0 ]));
    test "unanchored filter: the sink is not proved safe" (fun () ->
        let r =
          Fixpoint.analyze ~attack:Attack.contains_quote (parse broken_source)
        in
        check_bool "not proved" true (Fixpoint.safe_sink_ids r = []));
    test "a data-dependent loop converges via widening and is safe" (fun () ->
        let r =
          Fixpoint.analyze ~attack:Attack.contains_quote (parse loop_source)
        in
        check_bool "safe" true (Fixpoint.safe_sink_ids r = [ 0 ]);
        check_bool "widened" true (r.Fixpoint.widenings >= 1));
    test "a quote-appending loop is not proved safe" (fun () ->
        let r =
          Fixpoint.analyze ~attack:Attack.contains_quote
            (parse
               {|$ids = "0";
                 while (!preg_match(/^done$/, input("more"))) {
                   $ids = $ids . "'";
                 }
                 query("SELECT " . $ids);|})
        in
        check_bool "not proved" true (Fixpoint.safe_sink_ids r = []));
    test "a conditional sanitizer is proved by branch refinement" (fun () ->
        let r =
          Fixpoint.analyze ~attack:Attack.contains_quote
            (parse
               {|$x = input("x");
                 if (!preg_match(/^[0-9']+$/, $x)) { exit; }
                 $x = str_replace("'", "", $x);
                 query("SELECT * FROM t WHERE id=" . $x);|})
        in
        check_bool "safe" true (Fixpoint.safe_sink_ids r = [ 0 ]));
    test "analyze_cached reuses results and resets with the store" (fun () ->
        Store.clear ();
        let program = parse fixed_source in
        let count name snap =
          Telemetry.Metrics.Snapshot.counter_value snap name
        in
        let before = Telemetry.Metrics.Snapshot.of_default () in
        let r1 =
          Fixpoint.analyze_cached ~attack:Attack.contains_quote program
        in
        let r2 =
          Fixpoint.analyze_cached ~attack:Attack.contains_quote program
        in
        let diff =
          Telemetry.Metrics.Snapshot.diff
            ~after:(Telemetry.Metrics.Snapshot.of_default ())
            ~before
        in
        check_bool "same result object" true (r1 == r2);
        check_int "one miss" 1 (count "analysis.fixpoint.cache.miss" diff);
        check_int "one hit" 1 (count "analysis.fixpoint.cache.hit" diff);
        (* a different widening budget is a different key *)
        let r3 =
          Fixpoint.analyze_cached ~widen_delay:1
            ~attack:Attack.contains_quote program
        in
        check_bool "parameters key the cache" true (r1 != r3);
        (* clearing the store voids the cache: handles would be stale *)
        Store.clear ();
        let before = Telemetry.Metrics.Snapshot.of_default () in
        let r4 =
          Fixpoint.analyze_cached ~attack:Attack.contains_quote program
        in
        let diff =
          Telemetry.Metrics.Snapshot.diff
            ~after:(Telemetry.Metrics.Snapshot.of_default ())
            ~before
        in
        check_bool "recomputed after clear" true (r1 != r4);
        check_int "miss after clear" 1
          (count "analysis.fixpoint.cache.miss" diff);
        check_bool "verdicts agree" true
          (Fixpoint.safe_sink_ids r1 = Fixpoint.safe_sink_ids r4));
  ]

let prepass_tests =
  let module Prepass = Analysis.Prepass in
  [
    test "a guarded sink: one candidate, the fixpoint is skipped" (fun () ->
        let d = Prepass.decide (parse fixed_source) in
        check_bool "skip" false d.Prepass.run_fixpoint;
        check_int "candidates" 1 d.candidates;
        check_int "forks" 1 d.forks;
        check_bool "untruncated" false d.truncated;
        Alcotest.(check string)
          "reason" "exhaustive walk, 1 candidate in 1 fork" d.reason);
    test "a loop before the sink runs out of fuel: the fixpoint runs" (fun () ->
        let d = Prepass.decide (parse loop_source) in
        check_bool "run" true d.Prepass.run_fixpoint;
        check_bool "truncated" true d.truncated;
        check_int "one candidate per unrolling" 17 d.candidates);
    test "more candidates than the budget: the fixpoint runs" (fun () ->
        let two_forks =
          parse
            {|$a = input("a");
              if (preg_match(/x/, $a)) { $q = "1"; } else { $q = $a; }
              if (preg_match(/y/, input("b"))) { query($q); } else { query("c" . $q); }|}
        in
        let d = Prepass.decide ~path_budget:3 two_forks in
        check_bool "run" true d.Prepass.run_fixpoint;
        check_int "candidates" 4 d.candidates;
        Alcotest.(check string)
          "reason" "4 candidates in 3 forks exceed the budget of 3" d.reason;
        check_bool "within the budget: skip" false
          (Prepass.decide ~path_budget:4 two_forks).Prepass.run_fixpoint);
    test "code after the last sink costs no fork" (fun () ->
        let d =
          Prepass.decide
            (parse
               (fixed_source
               ^ String.concat ""
                   (List.init 14 (fun i ->
                        Printf.sprintf
                          {|if (preg_match(/x/, input("f%d"))) { echo "%d"; }|}
                          i i))))
        in
        check_bool "skip" false d.Prepass.run_fixpoint;
        check_int "forks" 1 d.forks);
    test "a walk that reads an unassigned variable runs the fixpoint"
      (fun () ->
        let program =
          parse
            {|while (preg_match(/^x/, input("b"))) { echo "x"; }
              if (!preg_match(/^[0-9]+$/, $y)) { exit; }
              query("S" . $y);|}
        in
        let d = Prepass.decide program in
        check_bool "run" true d.Prepass.run_fixpoint;
        check_bool "reported as truncated" true d.truncated;
        (* the fixpoint proves the sink safe, so symbolic execution —
           which would raise on [$y] — never runs *)
        let plan =
          Analysis.Pipeline.plan ~attack:Attack.contains_quote program
        in
        check_bool "all sinks pruned" true
          (Analysis.Pipeline.all_sinks_pruned plan));
    test "path budget 0 disables the walk" (fun () ->
        let d = Prepass.decide ~path_budget:0 (parse fixed_source) in
        check_bool "run" true d.Prepass.run_fixpoint;
        check_int "no walk" 0 d.forks);
  ]

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)

let input_names = [ "a"; "b" ]

(* Loop-free programs over the symexec test vocabulary, extended with
   the string transforms the abstract transformers must over-
   approximate. *)
let straightline_gen =
  let open QCheck2.Gen in
  let patterns = [ "/^[0-9]+$/"; "/[0-9]$/"; "/^[a-z]*$/" ] in
  let expr_gen =
    let* name = oneofl input_names in
    let* lit = oneofl [ "q="; "'"; "x" ] in
    let* base =
      oneofl
        [ Ast.Input name; Ast.Concat (Ast.Str lit, Ast.Input name); Ast.Str lit ]
    in
    oneofl
      [
        base;
        Ast.Sanitize (Ast.Lower, base);
        Ast.Sanitize (Ast.Addslashes, base);
        Ast.Sanitize (Ast.Replace ('\'', ""), base);
      ]
  in
  let stmt_gen =
    let* pat = oneofl patterns in
    let* name = oneofl input_names in
    let* e = expr_gen in
    oneofl
      [
        Ast.If
          ( Ast.Not
              (Ast.Preg_match (Regex.Parser.parse_pattern_exn pat, Ast.Input name)),
            [ Ast.Exit ],
            [] );
        Ast.Query e;
        Ast.Echo e;
      ]
  in
  list_size (int_range 1 6) stmt_gen

(* Single-loop programs: an accumulator grown inside a While whose
   condition tests an input, with a sink inside and/or after the
   loop. *)
let loopy_gen =
  let open QCheck2.Gen in
  let* seed = oneofl [ "0"; "x"; "q=" ] in
  let* tail = oneofl [ ",0"; "ab"; "'" ] in
  let* pat = oneofl [ "/^done$/"; "/^[0-9]+$/" ] in
  let* name = oneofl input_names in
  let* inner_query = bool in
  let body =
    Ast.Assign ("t", Ast.Concat (Ast.Var "t", Ast.Str tail))
    :: (if inner_query then [ Ast.Query (Ast.Var "t") ] else [])
  in
  return
    [
      Ast.Assign ("t", Ast.Str seed);
      Ast.While
        ( Ast.Not
            (Ast.Preg_match (Regex.Parser.parse_pattern_exn pat, Ast.Input name)),
          body );
      Ast.Query (Ast.Concat (Ast.Str "SELECT ", Ast.Var "t"));
    ]

(* Loop-free programs with two-armed branches, nested two deep, whose
   conditions test an input (a fork) or a variable that may hold a
   literal (folded to a constant by the executor), with sinks anywhere:
   path counts from one to a few hundred. *)
let branchy_gen =
  let open QCheck2.Gen in
  let cond_gen =
    let* pat = oneofl [ "/^[0-9]+$/"; "/[0-9]$/"; "/^[a-z]*$/" ] in
    let* operand = oneofl [ Ast.Input "a"; Ast.Input "b"; Ast.Var "t" ] in
    return (Ast.Preg_match (Regex.Parser.parse_pattern_exn pat, operand))
  in
  let leaf_gen =
    let* name = oneofl input_names in
    let* lit = oneofl [ "7"; "x" ] in
    oneofl
      [
        Ast.Query (Ast.Concat (Ast.Str "q=", Ast.Var "t"));
        Ast.Query (Ast.Input name);
        Ast.Assign ("t", Ast.Str lit);
        Ast.Assign ("t", Ast.Input name);
        Ast.Echo (Ast.Var "t");
        Ast.Exit;
      ]
  in
  let rec stmts_gen depth = list_size (int_range 1 4) (stmt_gen depth)
  and stmt_gen depth =
    if depth = 0 then leaf_gen
    else
      let branch =
        let* c = cond_gen in
        let* t = stmts_gen (depth - 1) in
        let* f = stmts_gen (depth - 1) in
        return (Ast.If (c, t, f))
      in
      oneof [ leaf_gen; branch; branch ]
  in
  let* first = oneofl [ Ast.Str "7"; Ast.Input "a" ] in
  let* body = list_size (int_range 1 5) (stmt_gen 2) in
  return (Ast.Assign ("t", first) :: body)

let inputs_gen =
  let open QCheck2.Gen in
  let* va = word_gen in
  let* vb = word_gen in
  return [ ("a", va); ("b", vb) ]

(* Soundness: every SQL string a concrete run actually issues is a
   member of some sink's abstract query language. *)
let sound_against program ~inputs ~max_loop_iters =
  let r = Fixpoint.analyze ~attack:Attack.contains_quote program in
  let result = Eval.run ~max_loop_iters program ~inputs in
  List.for_all
    (function
      | Eval.Echoed _ -> true
      | Eval.Queried q ->
          List.exists
            (fun v -> Nfa.accepts (Store.nfa v.Fixpoint.lang) q)
            r.Fixpoint.verdicts)
    result.Eval.events

let props =
  let open QCheck2.Gen in
  let with_inputs gen = pair gen inputs_gen in
  [
    qtest ~count:80 "abstract sink languages cover concrete runs (loop-free)"
      (with_inputs straightline_gen)
      (fun (program, inputs) ->
        sound_against program ~inputs ~max_loop_iters:1000);
    qtest ~count:80 "abstract sink languages cover concrete runs (loops)"
      (with_inputs loopy_gen)
      (fun (program, inputs) ->
        sound_against program ~inputs ~max_loop_iters:20);
    qtest ~count:80 "the fixpoint terminates on loops and covers every sink"
      loopy_gen
      (fun program ->
        let r = Fixpoint.analyze ~attack:Attack.contains_quote program in
        List.length r.Fixpoint.verdicts = List.length (Ast.sinks program));
    (* the fixpoint iterates only blocks that reach a sink: code past
       the last one adds no iteration and moves no sink language *)
    qtest ~count:40 "a sink-free suffix changes no fixpoint verdict or iteration"
      (pair (oneof [ straightline_gen; loopy_gen ]) sink_free_suffix_gen)
      (fun (program, suffix) ->
        let analyze p = Fixpoint.analyze ~attack:Attack.contains_quote p in
        let a = analyze program and b = analyze (program @ suffix) in
        let n = List.length a.verdicts in
        let same (v : Fixpoint.sink_verdict) (v' : Fixpoint.sink_verdict) =
          v.sink_id = v'.sink_id && v.safe = v'.safe && Store.equal v.lang v'.lang
        in
        a.iterations = b.iterations
        && a.widenings = b.widenings
        && List.equal same a.verdicts (List.filteri (fun i _ -> i < n) b.verdicts)
        && List.for_all
             (fun (v : Fixpoint.sink_verdict) -> v.safe)
             (List.filteri (fun i _ -> i >= n) b.verdicts));
    (* the pre-pass predicts the executor with its own walk: a skip is
       only ever taken when enumeration at the same bound is complete
       and small, and the prediction is exact *)
    qtest ~count:200 "a pre-pass skip means exhaustive, small enumeration"
      (triple branchy_gen (int_range 1 8) (int_range 1 16))
      (fun (program, path_budget, max_paths) ->
        let d = Analysis.Prepass.decide ~path_budget ~max_paths program in
        let e = Webapp.Symexec.analyze ~max_paths ~attack:Attack.contains_quote program in
        let n = List.length e.candidates in
        d.candidates = n
        && d.truncated = e.paths_truncated
        && (d.run_fixpoint || ((not e.paths_truncated) && n <= path_budget)));
  ]

let suite =
  [
    ("analysis:cfg", cfg_tests);
    ("analysis:fixpoint", fixpoint_tests);
    ("analysis:prepass", prepass_tests);
    ("analysis:props", props);
  ]
