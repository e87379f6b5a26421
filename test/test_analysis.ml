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
  ]

let suite =
  [
    ("analysis:cfg", cfg_tests);
    ("analysis:fixpoint", fixpoint_tests);
    ("analysis:props", props);
  ]
