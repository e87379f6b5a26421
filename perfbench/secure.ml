(* secure: the Fig. 12 secure row, reduced. Each page keeps the row's
   shape — 648 basic blocks, 81 constraints in one CI-group on
   posted_id, a long literal concatenated into $q and rechecked by
   unanchored keyword patterns — with two rechecks instead of four.

   Cost is a cliff in the rechecks, not a slope in the literal: with
   two rechecks a 1000-character literal costs about 0.2 s per solve,
   most of it in gci, and 500 or 2000 characters cost the same; a
   third recheck costs 7–8 s, and four (the full row) take minutes.
   The seed varies only the literal's filler, drawn from characters
   that occur in no recheck keyword and in no attack, so it changes
   no machine's shape: every seed gets the same cost class. *)

module Ast = Webapp.Ast
module Symexec = Webapp.Symexec

let pages_per_set = 4
let literal_length = 1000
let rechecks = [ "/FROM/"; "/WHERE/" ]
let keywords_in_query = " SELECT * FROM news WHERE id=nid_"
let filler = "abcefghjklmopqrstuvwxyz0123456789 "

let pattern = Regex.Parser.parse_pattern_exn

(* Mirrors the secure branch of [Corpus.Fig12.program]: plain guards
   on distinct inputs, constant-folded padding, the faulty filter on
   posted_id, then the big literal and its rechecks. The guards and
   padding come from a fixed generator, so only [rng]'s filler
   differs between pages and seeds. *)
let page rng =
  let fixed = Random.State.make [| 0x5ec |] in
  let pick l = List.nth l (Random.State.int fixed (List.length l)) in
  let words = [ "news"; "user"; "cart"; "item"; "vote"; "page"; "post"; "shop" ] in
  let patterns =
    [ "/^[a-z]{1,8}$/"; "/^[0-9]{1,6}$/"; "/^[a-zA-Z0-9_]{1,10}$/"; "/^[a-z]+$/";
      "/^(yes|no)$/"; "/^[0-9]+$/" ]
  in
  let guard cond = Ast.If (Ast.Not cond, [ Ast.Exit ], []) in
  (* each recheck is one If (2 blocks) and one ⊆-edge plus one ∘-pair *)
  let fg = 648 - (2 * List.length rechecks) and c = 81 - (2 * List.length rechecks) in
  let guards = min (c - 2) ((fg - 1) / 2) in
  let plain =
    List.init (guards - 1) (fun i ->
        guard
          (Ast.Preg_match
             (pattern (pick patterns), Ast.Input (Printf.sprintf "%s_%d" (pick words) i))))
  in
  let padding_blocks = fg - 1 - (2 * guards) in
  (* an If with two non-empty arms is 3 blocks; one with only an exit
     arm is 2, one with no arms is 1 *)
  let remainder =
    match padding_blocks mod 3 with
    | 0 -> []
    | r -> [ Ast.If (Ast.Str_eq (Ast.Var "mode0", "__never"), (if r = 2 then [ Ast.Exit ] else []), []) ]
  in
  let padding =
    List.init (padding_blocks / 3) (fun i ->
        let mode = Printf.sprintf "mode%d" i and tested = pick words in
        [ Ast.Assign (mode, Ast.Str (pick words));
          Ast.If
            ( Ast.Str_eq (Ast.Var mode, tested),
              [ Ast.Echo (Ast.Str (Printf.sprintf "<div class=%s>" tested)) ],
              [ Ast.Echo (Ast.Str "<div>") ] ) ])
    |> List.concat
  in
  let padding = padding @ remainder in
  let literal =
    String.init literal_length (fun _ -> filler.[Random.State.int rng (String.length filler)])
  in
  padding @ plain
  @ [ guard (Ast.Preg_match (pattern "/[\\d]+$/", Ast.Input "posted_id"));
      Ast.Assign ("q", Ast.Concat (Ast.Str (literal ^ keywords_in_query), Ast.Input "posted_id")) ]
  @ List.map (fun p -> guard (Ast.Preg_match (pattern p, Ast.Var "q"))) rechecks
  @ [ Ast.Query (Ast.Var "q") ]

type item = { program : Ast.program; query : Symexec.query }

(* Set-up parses and symbolically executes every page once; the timed
   item is the paper's T_S, the solve of the page's one sink system. *)
let texts ~seed =
  let rng = Random.State.make [| seed |] in
  List.init pages_per_set (fun _ -> Ast.to_source (page rng))

let items texts =
  Array.of_list texts
  |> Array.map (fun text ->
      let program = Webapp.Lang_parser.parse_exn text in
      match (Symexec.analyze ~attack:Corpus.Fig12.attack program).Symexec.candidates with
      | [ query ] ->
          assert (Ast.basic_blocks program = 648 && query.Symexec.constraint_count = 81);
          { program; query }
      | qs -> failwith (Printf.sprintf "secure: %d sink candidates, expected 1" (List.length qs)))

let solve item =
  Harness.constraints_in :=
    !Harness.constraints_in + List.length (Dprle.System.constraints item.query.system);
  let verdict = Harness.span "webapp.sink_solve" (fun () -> Symexec.solve item.query) in
  Option.map (Symexec.exploit_inputs item.query) verdict.Symexec.assignment

(* The witness must drive a quote into an issued query when the page
   runs concretely. *)
let check items pos = function
  | None -> Harness.Wrong (Printf.sprintf "page %d: no exploit found" pos)
  | Some inputs ->
      let item = items.(pos) in
      let queries = Webapp.Eval.queries item.program ~inputs:(Scan.with_defaults item.program inputs) in
      if List.exists Scan.has_quote queries then Harness.Pass
      else Harness.Wrong (Printf.sprintf "page %d: the witness put no quote into a query" pos)

let setup ~seed =
  let texts = texts ~seed in
  let items = items texts in
  let reset () = Automata.Store.clear () in
  (* warm-up: one untimed solve *)
  reset ();
  ignore (solve items.(0));
  {
    Harness.name = "secure";
    cycle = Array.length items;
    digest = Harness.md5_hex texts;
    reset;
    before_item = Harness.fresh_process;
    run = (fun pos -> solve items.(pos));
    check = check items;
  }
