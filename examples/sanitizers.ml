(* Reasoning through sanitizers with transducer preimages — the FST
   direction of the paper's related work, built on Automata.Fst.

   Run with:  dune exec examples/sanitizers.exe *)

module Nfa = Automata.Nfa
module Fst = Automata.Fst

(* the sink interpolates inside '...' delimiters, so the right attack
   language is "odd number of unescaped quotes" — the value breaks
   out of its literal *)
let attack = Webapp.Attack.unbalanced_quote

let analyze title source =
  Fmt.pr "=== %s ===@.%s@." title source;
  let program = Webapp.Lang_parser.parse_exn source in
  (match Webapp.Symexec.first_exploit ~attack program with
  | None -> Fmt.pr "-> no quote-level exploit (solver proves the sink clean)@."
  | Some inputs ->
      List.iter (fun (k, v) -> Fmt.pr "-> exploit %s = %S@." k v) inputs;
      let queries = Webapp.Eval.queries program ~inputs in
      List.iter
        (fun q ->
          Fmt.pr "   query: %S@." q;
          Fmt.pr "   still parses as intended SQL: %b@." (Sql.Parser.well_formed q))
        queries);
  Fmt.pr "@."

let () =
  (* 1. the unsanitized sink: exploitable *)
  analyze "raw interpolation"
    {|$x = input("x");
query("SELECT * FROM t WHERE a = '" . $x . "'");|};

  (* 2. quote deletion: no quote can reach the literal, but the
        attack language models MySQL-style backslash escaping, so a
        lone trailing backslash still counts as "escaping the closing
        delimiter" — the solver reports it, and the concrete SQL
        parser (ANSI rules, '' escaping only) shows the structure
        survives. A nice measured example of approximation slack in
        BOTH directions. *)
  analyze "str_replace deletes quotes"
    {|$x = input("x");
query("SELECT * FROM t WHERE a = '" . str_replace("'", "", $x) . "'");|};

  (* 3. addslashes: quotes still appear in the query — the regex-level
        attack fires — but every one arrives escaped, so the structure
        survives (run the printed query through the SQL parser) *)
  analyze "addslashes escapes quotes"
    {|$x = input("x");
query("SELECT * FROM t WHERE a = '" . addslashes($x) . "'");|};

  (* 4. the machinery directly: preimages through addslashes *)
  Fmt.pr "=== transducer preimages ===@.";
  let target = Automata.Store.nfa (Dprle.System.const_of_regex "\\\\'") in
  let pre = Fst.preimage Fst.addslashes target in
  Fmt.pr "addslashes⁻¹(/\\\\'/) = /%s/ (the single quote)@."
    (Regex.Pretty.pretty pre);
  let bare_quote =
    Automata.Store.nfa (Dprle.System.const_of_regex "[^'\\\\]*'.*")
  in
  Fmt.pr "addslashes⁻¹(bare-quote language) empty: %b@."
    (Automata.Nfa.is_empty_lang (Fst.preimage Fst.addslashes bare_quote))
