(* A regular-expression representation owned by the benchmark, with a
   Brzozowski-derivative matcher. The wire oracle checks witnesses
   with it, so the check shares no code with the automata library
   under test. *)

type t =
  | Nothing
  | Lit of string  (** one word; [Lit ""] is ε *)
  | Class of string * int * int option
      (** [Class (chars, m, n)]: [[chars]{m,n}], unbounded when [n] is
          [None]; [chars] is sorted and non-empty *)
  | Seq of t list
  | Alt of t list

let lower = "abcdefghijklmnopqrstuvwxyz"
let digits = "0123456789"

let rec nullable = function
  | Nothing -> false
  | Lit s -> s = ""
  | Class (_, m, _) -> m = 0
  | Seq rs -> List.for_all nullable rs
  | Alt rs -> List.exists nullable rs

let seq rs =
  let rs = List.filter (fun r -> r <> Lit "") rs in
  if List.mem Nothing rs then Nothing
  else match rs with [] -> Lit "" | [ r ] -> r | rs -> Seq rs

let alt rs =
  let rs = List.sort_uniq compare (List.filter (fun r -> r <> Nothing) rs) in
  match rs with [] -> Nothing | [ r ] -> r | rs -> Alt rs

let rec deriv c = function
  | Nothing -> Nothing
  | Lit s ->
      if s <> "" && s.[0] = c then Lit (String.sub s 1 (String.length s - 1))
      else Nothing
  | Class (chars, m, n) ->
      if String.contains chars c && n <> Some 0 then
        Class (chars, max 0 (m - 1), Option.map pred n)
      else Nothing
  | Seq [] -> Nothing
  | Seq (r :: rest) ->
      let first = seq (deriv c r :: rest) in
      if nullable r then alt [ first; deriv c (seq rest) ] else first
  | Alt rs -> alt (List.map (deriv c) rs)

let matches r w = nullable (String.fold_left (fun r c -> deriv c r) r w)

(* Rendering in the PCRE subset [Regex.Parser] accepts, unanchored;
   callers wrap it in [/^…$/]. Only alphanumerics and [_] occur in
   generated classes and literals, so nothing needs escaping. *)
let render_class chars =
  let buf = Buffer.create 16 in
  let n = String.length chars in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && Char.code chars.[!j + 1] = Char.code chars.[!j] + 1 do
      incr j
    done;
    if !j - !i >= 2 then Printf.bprintf buf "%c-%c" chars.[!i] chars.[!j]
    else Buffer.add_string buf (String.sub chars !i (!j - !i + 1));
    i := !j + 1
  done;
  "[" ^ Buffer.contents buf ^ "]"

let rec render = function
  | Nothing -> invalid_arg "Rx.render: the empty language has no rendering"
  | Lit s -> s
  | Class (chars, m, n) ->
      render_class chars
      ^ (match (m, n) with
        | 0, None -> "*"
        | 1, None -> "+"
        | m, None -> Printf.sprintf "{%d,}" m
        | m, Some n when m = n -> Printf.sprintf "{%d}" m
        | m, Some n -> Printf.sprintf "{%d,%d}" m n)
  | Seq rs -> String.concat "" (List.map render rs)
  | Alt rs -> "(" ^ String.concat "|" (List.map render rs) ^ ")"
