(* The paper's motivating example (Fig. 1 / §2), end to end:

     1. the Utopia News Pro fragment in mini-PHP,
     2. symbolic execution into a constraint system,
     3. the concat-intersect construction of Fig. 3/4 (machine sizes
        shown),
     4. the solved exploit language, a concrete exploit, and a
        concrete run of the program on it,
     5. the fixed program (anchored filter) shown to be safe.

   Run with:  dune exec examples/sqli_utopia.exe *)

module Nfa = Automata.Nfa
module Ci = Dprle.Ci
module System = Dprle.System

let vulnerable_src =
  {|// Utopia News Pro fragment (Fig. 1 of the paper)
$newsid = input("posted_newsid");
if (!preg_match(/[\d]+$/, $newsid)) {
  echo "Invalid article news ID.";
  exit;
}
$newsid = "nid_" . $newsid;
query("SELECT * FROM news WHERE newsid=" . $newsid);
|}

let fixed_src =
  {|$newsid = input("posted_newsid");
if (!preg_match(/^[\d]+$/, $newsid)) { exit; }
$newsid = "nid_" . $newsid;
query("SELECT * FROM news WHERE newsid=" . $newsid);
|}

let attack = Webapp.Attack.contains_quote

let () =
  Fmt.pr "=== 1. the vulnerable program ===@.%s@." vulnerable_src;
  let program = Webapp.Lang_parser.parse_exn vulnerable_src in

  Fmt.pr "=== 2. symbolic execution ===@.";
  let candidates = (Webapp.Symexec.analyze ~attack program).Webapp.Symexec.candidates in
  List.iter
    (fun q ->
      Fmt.pr "path %d, sink %d: |C| = %d, inputs = {%s}@." q.Webapp.Symexec.path_id
        q.sink_index q.constraint_count
        (String.concat ", " q.input_vars);
      Fmt.pr "constraints:@.  @[<v>%a@]@." System.pp q.system)
    candidates;

  Fmt.pr "@.=== 3. the concat-intersect machines (Fig. 4) ===@.";
  (* the same constants the paper uses: c1 = "nid_", c2 = the faulty
     filter's accepted language, c3 = strings containing a quote *)
  let compact h = Automata.Lang.compact (Automata.Store.nfa h) in
  let c1 = compact (System.const_of_word "nid_") in
  let c2 = compact (System.const_of_pattern "/[\\d]+$/") in
  let c3 = compact (System.const_of_pattern "/'/") in
  let { Ci.solutions; m4; m5 } = Ci.concat_intersect c1 c2 c3 in
  Fmt.pr "M1 (nid_):        %a@." Nfa.pp_summary c1;
  Fmt.pr "M2 (filter):      %a@." Nfa.pp_summary c2;
  Fmt.pr "M3 (attack):      %a@." Nfa.pp_summary c3;
  Fmt.pr "M4 = M1 . M2:     %a@." Nfa.pp_summary m4;
  Fmt.pr "M5 = M4 n M3:     %a@." Nfa.pp_summary m5;
  Fmt.pr "ε-cuts found: %d@." (List.length solutions);
  List.iter
    (fun { Ci.v1; v2; cut = qa, qb } ->
      Fmt.pr "cut (%d → %d):@." qa qb;
      Fmt.pr "  v1 = /%s/@." (Regex.State_elim.to_string v1);
      Fmt.pr "  v2 = /%s/@." (Regex.State_elim.to_string v2))
    solutions;

  Fmt.pr "@.=== 4. exploit generation ===@.";
  (match Webapp.Symexec.first_exploit ~attack program with
  | None -> Fmt.pr "no exploit found (unexpected!)@."
  | Some inputs ->
      List.iter (fun (k, v) -> Fmt.pr "%s = %S@." k v) inputs;
      let queries = Webapp.Eval.queries program ~inputs in
      List.iter (fun q -> Fmt.pr "concrete query: %S@." q) queries;
      Fmt.pr "attack fired: %b@."
        (Webapp.Eval.vulnerable_run ~attack program ~inputs));

  Fmt.pr "@.=== 5. the fixed program is safe ===@.";
  let fixed = Webapp.Lang_parser.parse_exn fixed_src in
  match Webapp.Symexec.first_exploit ~attack fixed with
  | None -> Fmt.pr "no exploitable path: the anchored filter closes the bug@."
  | Some _ -> Fmt.pr "still vulnerable (unexpected!)@."
