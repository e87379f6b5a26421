open Helpers
module Fig11 = Corpus.Fig11
module Fig12 = Corpus.Fig12
module Ast = Webapp.Ast
module Symexec = Webapp.Symexec

let find_candidate row =
  let program = Fig12.program row in
  let candidates =
    (Symexec.analyze ~max_paths:4096 ~attack:Fig12.attack program).Symexec.candidates
  in
  match candidates with
  | [ q ] -> q
  | qs -> Alcotest.failf "%s: expected 1 candidate, got %d" row.Fig12.name (List.length qs)

let row_named name = List.find (fun r -> r.Fig12.name = name) Fig12.rows

let fig12_tests =
  [
    test "17 rows, apps match Fig. 11 vulnerable counts" (fun () ->
        check_int "rows" 17 (List.length Fig12.rows);
        List.iter
          (fun { Fig11.name; vulnerable; _ } ->
            check_int name vulnerable
              (List.length (List.filter (fun r -> r.Fig12.app = name) Fig12.rows)))
          Fig11.apps);
    test "every row's |FG| is reproduced exactly" (fun () ->
        List.iter
          (fun ({ Fig12.name; fg; _ } as row) ->
            check_int name fg (Ast.basic_blocks (Fig12.program row)))
          Fig12.rows);
    test "every row's |C| is reproduced exactly" (fun () ->
        List.iter
          (fun ({ Fig12.name; c; _ } as row) ->
            check_int name c (find_candidate row).Symexec.constraint_count)
          Fig12.rows);
    test "generation is deterministic" (fun () ->
        let row = row_named "edit" in
        check_bool "equal" true (Fig12.program row = Fig12.program row));
    test "programs are printable and reparseable" (fun () ->
        let row = row_named "login" in
        let program = Fig12.program row in
        let reparsed = Webapp.Lang_parser.parse_exn (Ast.to_source program) in
        check_bool "round trip" true (reparsed = program));
    test "a fast row solves and the exploit fires concretely" (fun () ->
        let row = row_named "ax_help" in
        let program = Fig12.program row in
        match Symexec.first_exploit ~max_paths:4096 ~attack:Fig12.attack program with
        | None -> Alcotest.fail "expected exploit"
        | Some inputs ->
            check_bool "fires" true
              (Webapp.Eval.vulnerable_run ~attack:Fig12.attack program ~inputs));
    test "the secure row carries multi-kilobyte constants" (fun () ->
        let program = Fig12.program (row_named "secure") in
        let rec max_lit_expr = function
          | Ast.Str s -> String.length s
          | Ast.Var _ | Ast.Input _ -> 0
          | Ast.Sanitize (_, e) -> max_lit_expr e
          | Ast.Concat (a, b) -> max (max_lit_expr a) (max_lit_expr b)
        in
        let rec max_lit = function
          | Ast.Assign (_, e) | Ast.Query e | Ast.Echo e -> max_lit_expr e
          | Ast.Exit -> 0
          | Ast.If (_, t, f) ->
              List.fold_left (fun acc s -> max acc (max_lit s)) 0 (t @ f)
          | Ast.While (_, body) ->
              List.fold_left (fun acc s -> max acc (max_lit s)) 0 body
        in
        let biggest = List.fold_left (fun acc s -> max acc (max_lit s)) 0 program in
        check_bool "big constant" true (biggest > 2000));
  ]

let fig11_tests =
  [
    test "three apps with the paper's metadata" (fun () ->
        match Fig11.apps with
        | [ eve; utopia; warp ] ->
            check_string "eve" "eve" eve.name;
            check_int "eve files" 8 eve.files;
            check_int "eve loc" 905 eve.loc;
            check_string "utopia ver" "1.3.0" utopia.version;
            check_int "warp vulns" 12 warp.vulnerable
        | _ -> Alcotest.fail "expected 3 apps");
    test "generated apps have the right file counts" (fun () ->
        List.iter
          (fun app ->
            let files = Fig11.generate app in
            check_int app.Fig11.name app.Fig11.files (List.length files))
          Fig11.apps);
    test "generated LOC is within 15% of the paper's" (fun () ->
        List.iter
          (fun app ->
            let files = Fig11.generate app in
            let loc =
              List.fold_left (fun acc (_, p) -> acc + Ast.loc p) 0 files
            in
            let ratio = float_of_int loc /. float_of_int app.Fig11.loc in
            if ratio < 0.85 || ratio > 1.15 then
              Alcotest.failf "%s: loc %d vs paper %d" app.Fig11.name loc
                app.Fig11.loc)
          Fig11.apps);
    test "benign files really are safe" (fun () ->
        let files = Fig11.generate (List.hd Fig11.apps) in
        let benign =
          List.filter (fun (name, _) -> String.length name > 5 && String.sub name 0 5 = "page_") files
        in
        check_bool "has benign files" true (benign <> []);
        List.iter
          (fun (name, program) ->
            check_bool name true
              (Symexec.first_exploit ~attack:Fig12.attack program = None))
          benign);
  ]

let suite = [ ("corpus:fig12", fig12_tests); ("corpus:fig11", fig11_tests) ]
