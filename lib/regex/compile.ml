module Nfa = Automata.Nfa
module Ops = Automata.Ops
module Store = Automata.Store

let rec compile : Ast.t -> Nfa.t = function
  | Empty -> Nfa.empty_lang
  | Epsilon -> Nfa.epsilon_lang
  | Chars cs -> if Charset.is_empty cs then Nfa.empty_lang else Nfa.of_charset cs
  | Seq (a, b) -> Ops.concat_lang (compile a) (compile b)
  | Alt (a, b) -> Ops.union_lang (compile a) (compile b)
  | Star a -> Ops.star (compile a)
  | Plus a -> Ops.plus (compile a)
  | Opt a -> Ops.opt (compile a)
  | Repeat (a, lo, hi) -> Ops.repeat (compile a) ~min_count:lo ~max_count:hi

(* Compiled constants are interned: textually repeated regexes across
   constraint files, Fig. 12 rows, and symexec paths collapse to one
   handle, so every downstream memo (determinization, subset, ci) hits
   across those repetitions. *)
let handle ast = Store.intern (compile ast)

let to_nfa ast = Store.nfa (handle ast)

let padded { Ast.re; anchored_start; anchored_end } =
  let core = compile re in
  let with_prefix =
    if anchored_start then core else Ops.concat_lang Nfa.sigma_star core
  in
  if anchored_end then with_prefix else Ops.concat_lang with_prefix Nfa.sigma_star

let pattern_handle pattern = Store.intern (padded pattern)

let pattern_of_text text =
  let exception Bad of Parser.error in
  match
    Store.of_pattern text (fun () ->
        match Parser.parse_pattern text with
        | Ok p -> padded p
        | Error e -> raise (Bad e))
  with
  | h -> Ok h
  | exception Bad e -> Error e

let pattern_to_nfa pattern = Store.nfa (pattern_handle pattern)
