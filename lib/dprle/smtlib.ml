let string_literal s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\"\""
      | c when Char.code c >= 32 && Char.code c <= 126 -> Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "\\u{%x}" (Char.code c)))
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let rec re_term : Regex.Ast.t -> string = function
  | Regex.Ast.Empty -> "re.none"
  | Regex.Ast.Epsilon -> "(str.to_re \"\")"
  | Regex.Ast.Chars cs ->
      if Charset.is_full cs then "re.allchar"
      else
        let ranges =
          List.map
            (fun (lo, hi) ->
              if lo = hi then
                Printf.sprintf "(str.to_re %s)"
                  (string_literal (String.make 1 (Char.chr lo)))
              else
                Printf.sprintf "(re.range %s %s)"
                  (string_literal (String.make 1 (Char.chr lo)))
                  (string_literal (String.make 1 (Char.chr hi))))
            (Charset.ranges cs)
        in
        (match ranges with
        | [] -> "re.none"
        | [ one ] -> one
        | many -> Printf.sprintf "(re.union %s)" (String.concat " " many))
  | Regex.Ast.Seq (a, b) -> Printf.sprintf "(re.++ %s %s)" (re_term a) (re_term b)
  | Regex.Ast.Alt (a, b) -> Printf.sprintf "(re.union %s %s)" (re_term a) (re_term b)
  | Regex.Ast.Star a -> Printf.sprintf "(re.* %s)" (re_term a)
  | Regex.Ast.Plus a -> Printf.sprintf "(re.+ %s)" (re_term a)
  | Regex.Ast.Opt a -> Printf.sprintf "(re.opt %s)" (re_term a)
  | Regex.Ast.Repeat (a, lo, Some hi) ->
      Printf.sprintf "((_ re.loop %d %d) %s)" lo hi (re_term a)
  | Regex.Ast.Repeat (a, lo, None) ->
      Printf.sprintf "(re.++ ((_ re.loop %d %d) %s) (re.* %s))" lo lo (re_term a)
        (re_term a)

let lang_re_term lang = re_term (Regex.Simplify.simplify (Regex.State_elim.to_regex lang))

(* sanitize variable names for SMT symbols (~ is fine in |…| quoting) *)
let symbol v =
  if String.for_all (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false) v
  then v
  else "|" ^ v ^ "|"

let singleton_word h =
  match Automata.Store.word h with
  | Some _ as w -> w
  | None -> (
      match Automata.Nfa.shortest_word (Automata.Store.nfa h) with
      | Some w when Automata.Store.equal h (Automata.Store.of_word w) -> Some w
      | _ -> None)

let of_system system =
  let lines = ref [] in
  let out fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  List.iter (fun v -> out "(declare-const %s String)" (symbol v)) (System.variables system);
  let quantified = ref false in
  let fresh_u = ref 0 in
  let constraint_assertions { System.lhs; rhs } =
    let upper =
      lang_re_term (Automata.Store.nfa (System.const_handle system rhs))
    in
    List.iter
      (fun alternative ->
        let ls = System.leaves alternative in
        (* multi-word constants become universally quantified words *)
        let bound = ref [] in
        let terms =
          List.map
            (fun leaf ->
              match leaf with
              | System.Var v -> symbol v
              | System.Const c -> (
                  let h = System.const_handle system c in
                  match singleton_word h with
                  | Some w -> string_literal w
                  | None ->
                      quantified := true;
                      let u = Printf.sprintf "u%d" !fresh_u in
                      incr fresh_u;
                      bound :=
                        (u, lang_re_term (Automata.Store.nfa h)) :: !bound;
                      u)
              | System.Concat _ | System.Union _ -> assert false)
            ls
        in
        let concat =
          match terms with
          | [] -> string_literal ""
          | [ one ] -> one
          | many -> Printf.sprintf "(str.++ %s)" (String.concat " " many)
        in
        let body = Printf.sprintf "(str.in_re %s %s)" concat upper in
        match !bound with
        | [] -> out "(assert %s)" body
        | bindings ->
            let decls =
              String.concat " "
                (List.map (fun (u, _) -> Printf.sprintf "(%s String)" u) bindings)
            in
            let guards =
              String.concat " "
                (List.map
                   (fun (u, re) -> Printf.sprintf "(str.in_re %s %s)" u re)
                   bindings)
            in
            out "(assert (forall (%s) (=> (and %s true) %s)))" decls guards body)
      (System.expand_unions lhs)
  in
  List.iter constraint_assertions (System.constraints system);
  out "(check-sat)";
  out "(get-model)";
  let header =
    [
      (if !quantified then "(set-logic ALL)" else "(set-logic QF_S)");
      "(set-info :source |exported by dprle (Hooimeijer & Weimer, PLDI 2009 \
       reproduction)|)";
    ]
  in
  String.concat "\n" (header @ List.rev !lines) ^ "\n"
