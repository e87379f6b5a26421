module Fst = Automata.Fst
module Store = Automata.Store

(* ------------------------------------------------------------------ *)
(* Sanitizers                                                         *)

let lower_fst = Fst.map_chars Char.lowercase_ascii
let upper_fst = Fst.map_chars Char.uppercase_ascii

let fst : Ast.sanitizer -> Fst.t = function
  | Ast.Lower -> lower_fst
  | Ast.Upper -> upper_fst
  | Ast.Addslashes -> Fst.addslashes
  | Ast.Replace (c, s) -> Fst.replace_char c s

let apply s w =
  match s with
  | Ast.Lower -> String.lowercase_ascii w
  | Ast.Upper -> String.uppercase_ascii w
  | Ast.Addslashes | Ast.Replace _ -> Option.get (Fst.apply (fst s) w)

let name = function
  | Ast.Lower -> "lower"
  | Ast.Upper -> "upper"
  | Ast.Addslashes -> "slashes"
  | Ast.Replace (c, s) -> Printf.sprintf "repl%c_%s" c s

(* ------------------------------------------------------------------ *)
(* Conditions                                                         *)

let rec cond_operand = function
  | Ast.Not c -> cond_operand c
  | Ast.Preg_match (_, e) | Ast.Str_eq (e, _) | Ast.Strlen (e, _, _) -> e

let rec holds c w =
  match c with
  | Ast.Not c -> not (holds c w)
  | Ast.Preg_match (pattern, _) -> Regex.Derivative.pattern_matches pattern w
  | Ast.Str_eq (_, s) -> String.equal w s
  | Ast.Strlen (_, cmp, n) -> (
      let len = String.length w in
      match cmp with
      | Ast.Len_eq -> len = n
      | Ast.Len_le -> len <= n
      | Ast.Len_ge -> len >= n)

(* What an unnegated condition's language depends on: its test, with
   the operand erased, so [preg_match(/p/, $a)] and
   [preg_match(/p/, $b)] share one language. *)
type test = Matches of Regex.Ast.pattern | Equals of string | Length of Ast.cmp * int

(* The accept language of a test. §3.1.2: a length check is the
   regular language .{n} / .{0,n} / .{n,}. *)
let accept_lang = function
  | Matches pattern -> Regex.Compile.pattern_handle pattern
  | Equals s -> Store.of_word s
  | Length (cmp, n) ->
      let any = Automata.Nfa.of_charset Charset.full in
      Store.intern
        (match cmp with
        | Ast.Len_eq -> Automata.Ops.repeat any ~min_count:n ~max_count:(Some n)
        | Ast.Len_le -> Automata.Ops.repeat any ~min_count:0 ~max_count:(Some n)
        | Ast.Len_ge -> Automata.Ops.repeat any ~min_count:n ~max_count:None)

(* The reject branch's complement comes from the accept handle's
   memoized determinization. *)
let build value t =
  let accept = accept_lang t in
  if value then accept
  else
    Store.intern
      (Automata.Dfa.to_nfa (Automata.Dfa.complement (Store.dfa accept)))

(* Branch-language cache: symbolic execution derives the same guard's
   language on every path through it, and the fixpoint on every visit
   of its edge; each build pays a regex compile, a complement or a
   bounded repeat, plus a canonical key. Keyed structurally on
   (test, polarity); per-domain (handles must not cross workers),
   reset with the store, and bypassed while the store is disabled so
   [--no-cache] stays a faithful ablation. *)
let table : (test * bool, Store.handle) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let () = Store.on_clear (fun () -> Hashtbl.reset (Domain.DLS.get table))

let test_lang value t =
  if not (Store.enabled ()) then build value t
  else
    let table = Domain.DLS.get table in
    match Hashtbl.find_opt table (t, value) with
    | Some h -> h
    | None ->
        let h = build value t in
        Hashtbl.replace table (t, value) h;
        h

let rec cond_lang value = function
  | Ast.Not c -> cond_lang (not value) c
  | Ast.Preg_match (pattern, _) -> test_lang value (Matches pattern)
  | Ast.Str_eq (_, s) -> test_lang value (Equals s)
  | Ast.Strlen (_, cmp, n) -> test_lang value (Length (cmp, n))
