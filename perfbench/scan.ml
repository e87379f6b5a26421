(* scan: the webcheck pipeline over the Fig. 11 corpus without
   warp/secure, one page per item, each from a cleared store as one
   [webcheck FILE] run starts. *)

module Ast = Webapp.Ast
module Symexec = Webapp.Symexec

type output = {
  vulnerable : bool;
  queries : string list;  (** issued by the concrete run on the exploit *)
}

let attack = Corpus.Fig12.attack

(* (file, source, vulnerable per the Fig. 12 answer key), in seeded
   order. The corpus itself is fixed; the seed only orders it. *)
let pages ~seed =
  let rng = Random.State.make [| seed |] in
  let key =
    List.map (fun (r : Corpus.Fig12.row) -> r.app ^ "/" ^ r.name ^ ".mphp") Corpus.Fig12.rows
  in
  let files =
    List.concat_map
      (fun (app : Corpus.Fig11.app) ->
        List.map (fun (f, p) -> (app.name ^ "/" ^ f, p)) (Corpus.Fig11.generate app))
      Corpus.Fig11.apps
    |> List.filter (fun (f, _) -> f <> "warp/secure.mphp")
  in
  let pages = Array.of_list (List.map (fun (f, p) -> (f, Ast.to_source p, List.mem f key)) files) in
  Harness.shuffle rng pages;
  pages

let texts pages = Array.to_list (Array.map (fun (_, t, _) -> t) pages)

let with_defaults program inputs =
  inputs
  @ List.filter_map
      (fun i -> if List.mem_assoc i inputs then None else Some (i, "a"))
      (Ast.inputs program)

(* The steps and defaults of [webcheck FILE]: prepass, fixpoint prune,
   symbolic execution, then solve candidates until the first exploit,
   which a concrete run confirms. *)
let max_paths = 4096

let scan_page text =
  let span = Harness.span in
  let program =
    match span "webapp.parse" (fun () -> Webapp.Lang_parser.parse text) with
    | Ok p -> p
    | Error e -> failwith (Fmt.str "scan: %a" Webapp.Lang_parser.pp_error e)
  in
  let decision =
    span "analysis.prepass" (fun () ->
        Analysis.Prepass.decide ~path_budget:Serve.Handler.prepass_paths program)
  in
  let safe_ids =
    if not decision.Analysis.Prepass.run_fixpoint then []
    else
      Analysis.Fixpoint.safe_sink_ids
        (span "analysis.fixpoint" (fun () -> Analysis.Fixpoint.analyze_cached ~attack program))
  in
  let sinks = List.length (Ast.sinks program) in
  let candidates =
    if sinks > 0 && List.length safe_ids = sinks then []
    else
      (span "webapp.symexec" (fun () -> Symexec.analyze ~max_paths ~attack program)).Symexec.candidates
      |> List.filter (fun (q : Symexec.query) -> not (List.mem q.sink_id safe_ids))
  in
  Harness.candidates := !Harness.candidates + List.length candidates;
  let exploit =
    List.find_map
      (fun (q : Symexec.query) ->
        Harness.constraints_in :=
          !Harness.constraints_in + List.length (Dprle.System.constraints q.system);
        let verdict = span "webapp.sink_solve" (fun () -> Symexec.solve q) in
        Option.map (Symexec.exploit_inputs q) verdict.Symexec.assignment)
      candidates
  in
  match exploit with
  | None -> { vulnerable = false; queries = [] }
  | Some inputs ->
      let inputs = with_defaults program inputs in
      { vulnerable = true;
        queries = span "webapp.confirm" (fun () -> Webapp.Eval.queries program ~inputs) }

let has_quote q = String.contains q '\''

let check pages pos out =
  let file, _, vulnerable = pages.(pos) in
  if out.vulnerable <> vulnerable then
    Harness.Wrong
      (Printf.sprintf "%s: reported %s, answer key says %s" file
         (if out.vulnerable then "vulnerable" else "safe")
         (if vulnerable then "vulnerable" else "safe"))
  else if vulnerable && not (List.exists has_quote out.queries) then
    Harness.Wrong (file ^ ": the exploit put no quote into an issued query")
  else Harness.Pass

let setup ~seed =
  let pages = pages ~seed in
  let reset () = Automata.Store.clear () in
  let run pos =
    let _, text, _ = pages.(pos) in
    scan_page text
  in
  (* warm-up: one untimed pass, so timing starts with the code paths
     and the heap already exercised *)
  Array.iteri (fun pos _ -> reset (); ignore (run pos)) pages;
  {
    Harness.name = "scan";
    cycle = Array.length pages;
    digest = Harness.md5_hex (texts pages);
    reset;
    before_item = Harness.fresh_process;
    run;
    check = check pages;
  }
