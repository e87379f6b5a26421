(* Shared qcheck generators and Alcotest helpers for the test suites. *)

let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

(* A small alphabet keeps random words likely to hit interesting
   automaton paths. *)
let small_char = QCheck2.Gen.oneofl [ 'a'; 'b'; 'c'; '0'; '1'; '\'' ]

let word_gen = QCheck2.Gen.(string_size ~gen:small_char (int_bound 12))

let charset_gen : Charset.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let interval =
    let* lo = int_bound 255 in
    let* len = int_bound 40 in
    return (lo, min 255 (lo + len))
  in
  let* ranges = list_size (int_range 0 4) interval in
  return (Charset.of_ranges ranges)

(* Random small ε-NFA: a handful of states with random char and ε
   edges. Start and final are the first two states; the machine may
   denote the empty language. *)
let nfa_gen : Automata.Nfa.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let module Nfa = Automata.Nfa in
  let* n = int_range 2 7 in
  let* char_edges =
    list_size (int_range 0 12)
      (let* src = int_bound (n - 1) in
       let* dst = int_bound (n - 1) in
       let* c = small_char in
       let* widen = bool in
       let cs = if widen then Charset.range c (Char.chr (min 255 (Char.code c + 2)))
                else Charset.singleton c in
       return (src, cs, dst))
  in
  let* eps_edges =
    list_size (int_range 0 3)
      (let* src = int_bound (n - 1) in
       let* dst = int_bound (n - 1) in
       return (src, dst))
  in
  let b = Nfa.Builder.create () in
  let first = Nfa.Builder.add_states b n in
  List.iter (fun (s, cs, d) -> Nfa.Builder.add_trans b (first + s) cs (first + d)) char_edges;
  List.iter (fun (s, d) -> Nfa.Builder.add_eps b (first + s) (first + d)) eps_edges;
  return (Nfa.Builder.finish b ~start:first ~final:(first + 1))

(* Random words biased toward the language of [m], so agreement tests
   exercise accepting paths, not just rejections. *)
let word_for (m : Automata.Nfa.t) : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let samples = Automata.Nfa.sample_words m ~max_len:8 ~max_count:10 in
  if samples = [] then word_gen
  else oneof [ word_gen; oneofl samples ]

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

let test name f = Alcotest.test_case name `Quick f

(* [Solver.run] with the default unlimited budget, unwrapped to the
   bare outcome — the migration target for tests written against the
   pre-Config [solve_system] signature. Unit tests never install
   budgets, so a budget error here is itself a failure. *)
let run_solver ?max_solutions ?combination_limit system =
  match
    Dprle.Solver.run
      (Dprle.Solver.Config.make ?max_solutions ?combination_limit ())
      system
  with
  | Ok outcome -> outcome
  | Error err ->
      Alcotest.failf "unexpected solver error: %s"
        (Dprle.Solver.Error.to_string err)

(* A mini-PHP suffix from which no sink is reachable: 9–12
   input-dependent branches (more forks than symbolic execution's
   default bound of 256), a loop on an input, echoes, then an [exit]
   in front of a dead query — the dead query is what makes
   reachability's [exit] rule observable. Appended after a program's
   last sink it may change no analysis result. The statements are
   allocated per draw: sink ids rest on physical identity. *)
let sink_free_suffix_gen : Webapp.Ast.program QCheck2.Gen.t =
  let open QCheck2.Gen in
  let module Ast = Webapp.Ast in
  let tainted name =
    Ast.Preg_match (Regex.Parser.parse_pattern_exn "/^[0-9]+$/", Ast.Input name)
  in
  let branch =
    let* name = oneofl [ "a"; "b" ] in
    let* exits = bool in
    return
      (Ast.If
         ( tainted name,
           [ Ast.Echo (Ast.Input name) ],
           if exits then [ Ast.Exit ] else [ Ast.Echo (Ast.Str "x") ] ))
  in
  let* branches = list_size (int_range 9 12) branch in
  return
    (branches
    @ [
        Ast.While (Ast.Not (tainted "a"), [ Ast.Echo (Ast.Input "b") ]);
        Ast.Echo (Ast.Str "done");
        Ast.Exit;
        Ast.Query (Ast.Input "a");
      ])
