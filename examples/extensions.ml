(* The §3.1.2 extensions in action: union on the left-hand side,
   length restrictions, and case-mapped input reads (solved through
   regular preimages).

   Run with:  dune exec examples/extensions.exe *)

module Nfa = Automata.Nfa

let () =
  (* 1. Union: one constraint ranging over two alternative prefixes.
        (p | q) . v ⊆ c splits into p∘v ⊆ c ∧ q∘v ⊆ c. *)
  Fmt.pr "=== union on the left-hand side ===@.";
  let system =
    Dprle.Sysparse.parse_exn
      {| let short = /^x{1,3}$/;
         let xpref = "x";
         let xxpref = "xx";
         (xpref | xxpref) . v <= short; |}
  in
  (match Dprle.Solver.run Dprle.Solver.Config.default system with
  | Ok (Dprle.Solver.Sat [ a ]) ->
      (* v must survive after both prefixes: x∘v and xx∘v both ⊆ x{1,3} *)
      Fmt.pr "v ↦ /%s/@.@." (Regex.Pretty.pretty
           (Automata.Store.minimized (Dprle.Assignment.find a "v")))
  | _ -> Fmt.pr "unexpected@.");

  (* 2. Length restriction: model a strlen check in code. *)
  Fmt.pr "=== length checks ===@.";
  let program =
    Webapp.Lang_parser.parse_exn
      {|$x = input("x");
        if (!(strlen($x) <= 4)) { exit; }
        query("SELECT " . $x);|}
  in
  (match
     Webapp.Symexec.first_exploit ~attack:Webapp.Attack.contains_quote program
   with
  | Some [ ("x", w) ] ->
      Fmt.pr "exploit within the length window: %S (length %d ≤ 4)@.@." w
        (String.length w)
  | _ -> Fmt.pr "unexpected@.");

  (* 3. Case-mapped reads: the filter inspects strtolower($x) but the
        query uses the raw $x; the solved constraint is pulled back
        through the case map as a regular preimage. *)
  Fmt.pr "=== strtolower through the solver ===@.";
  let program =
    Webapp.Lang_parser.parse_exn
      {|$x = input("x");
        if (!preg_match(/^[a-z']{1,6}$/, strtolower($x))) { exit; }
        query("SELECT * FROM t WHERE c=" . $x);|}
  in
  (match
     Webapp.Symexec.first_exploit ~attack:Webapp.Attack.contains_quote program
   with
  | Some inputs ->
      List.iter (fun (k, v) -> Fmt.pr "%s = %S@." k v) inputs;
      Fmt.pr "confirmed: %b@.@."
        (Webapp.Eval.vulnerable_run ~attack:Webapp.Attack.contains_quote program
           ~inputs)
  | None -> Fmt.pr "unexpected@.");

  (* 4. The preimage machinery directly. *)
  Fmt.pr "=== regular preimages ===@.";
  let lang = Automata.Store.nfa (Dprle.System.const_of_regex "se(cr|le)ct") in
  let pre = Automata.Fst.(preimage (map_chars Char.lowercase_ascii)) lang in
  Fmt.pr "lower⁻¹(/se(cr|le)ct/) accepts \"SeLeCT\": %b@."
    (Nfa.accepts pre "SeLeCT");
  Fmt.pr "first witnesses: %a@."
    Fmt.(list ~sep:comma (fmt "%S"))
    (Nfa.sample_words pre ~max_len:6 ~max_count:3)
