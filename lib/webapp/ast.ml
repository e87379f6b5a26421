type sanitizer = Lower | Upper | Addslashes | Replace of char * string

type expr =
  | Str of string
  | Var of string
  | Input of string
  | Concat of expr * expr
  | Sanitize of sanitizer * expr

type cmp = Len_eq | Len_le | Len_ge

type cond =
  | Preg_match of Regex.Ast.pattern * expr
  | Str_eq of expr * string
  | Strlen of expr * cmp * int
  | Not of cond

type stmt =
  | Assign of string * expr
  | If of cond * stmt list * stmt list
  | While of cond * stmt list
  | Exit
  | Query of expr
  | Echo of expr

type program = stmt list

module SSet = Set.Make (String)

let rec expr_inputs acc = function
  | Str _ | Var _ -> acc
  | Input name -> SSet.add name acc
  | Concat (a, b) -> expr_inputs (expr_inputs acc a) b
  | Sanitize (_, e) -> expr_inputs acc e

let rec cond_inputs acc = function
  | Preg_match (_, e) -> expr_inputs acc e
  | Str_eq (e, _) | Strlen (e, _, _) -> expr_inputs acc e
  | Not c -> cond_inputs acc c

let rec stmt_inputs acc = function
  | Assign (_, e) | Query e | Echo e -> expr_inputs acc e
  | Exit -> acc
  | If (c, t, f) ->
      let acc = cond_inputs acc c in
      let acc = List.fold_left stmt_inputs acc t in
      List.fold_left stmt_inputs acc f
  | While (c, body) ->
      let acc = cond_inputs acc c in
      List.fold_left stmt_inputs acc body

let inputs program = SSet.elements (List.fold_left stmt_inputs SSet.empty program)

let rec stmt_blocks = function
  | Assign _ | Exit | Query _ | Echo _ -> 0
  | If (_, t, f) ->
      (* one join block, plus a block per non-empty arm *)
      1
      + (if t = [] then 0 else 1)
      + (if f = [] then 0 else 1)
      + List.fold_left (fun acc s -> acc + stmt_blocks s) 0 (t @ f)
  | While (_, body) ->
      (* loop-head block + exit/join block, plus one for a non-empty body *)
      2
      + (if body = [] then 0 else 1)
      + List.fold_left (fun acc s -> acc + stmt_blocks s) 0 body

let basic_blocks program =
  1 + List.fold_left (fun acc s -> acc + stmt_blocks s) 0 program

let sinks program =
  let acc = ref [] in
  let rec stmt s =
    match s with
    | Query _ -> acc := s :: !acc
    | If (_, t, f) ->
        List.iter stmt t;
        List.iter stmt f
    | While (_, body) -> List.iter stmt body
    | Assign _ | Exit | Echo _ -> ()
  in
  List.iter stmt program;
  List.rev !acc

let sink_id program s =
  let rec go i = function
    | [] -> None
    | s' :: rest -> if s' == s then Some i else go (i + 1) rest
  in
  go 0 (sinks program)

(* ------------------------------------------------------------------ *)
(* Printing: concrete mini-PHP syntax                                 *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec pp_expr ppf = function
  | Str s -> Fmt.pf ppf "\"%s\"" (escape_string s)
  | Var v -> Fmt.pf ppf "$%s" v
  | Input name -> Fmt.pf ppf "input(\"%s\")" (escape_string name)
  | Concat (a, b) -> Fmt.pf ppf "%a . %a" pp_expr a pp_expr b
  | Sanitize (Lower, e) -> Fmt.pf ppf "strtolower(%a)" pp_expr e
  | Sanitize (Upper, e) -> Fmt.pf ppf "strtoupper(%a)" pp_expr e
  | Sanitize (Addslashes, e) -> Fmt.pf ppf "addslashes(%a)" pp_expr e
  | Sanitize (Replace (c, s), e) ->
      Fmt.pf ppf "str_replace(\"%s\", \"%s\", %a)"
        (escape_string (String.make 1 c))
        (escape_string s) pp_expr e

let pp_cmp ppf = function
  | Len_eq -> Fmt.string ppf "=="
  | Len_le -> Fmt.string ppf "<="
  | Len_ge -> Fmt.string ppf ">="

let rec pp_cond ppf = function
  | Preg_match (p, e) ->
      Fmt.pf ppf "preg_match(%a, %a)" Regex.Ast.pp_pattern p pp_expr e
  | Str_eq (e, s) -> Fmt.pf ppf "%a == \"%s\"" pp_expr e (escape_string s)
  | Strlen (e, cmp, n) -> Fmt.pf ppf "strlen(%a) %a %d" pp_expr e pp_cmp cmp n
  | Not c -> Fmt.pf ppf "!%a" pp_cond c

let rec pp_stmt ppf = function
  | Assign (v, e) -> Fmt.pf ppf "$%s = %a;" v pp_expr e
  | Exit -> Fmt.string ppf "exit;"
  | Query e -> Fmt.pf ppf "query(%a);" pp_expr e
  | Echo e -> Fmt.pf ppf "echo %a;" pp_expr e
  | If (c, t, []) ->
      Fmt.pf ppf "@[<v>if (%a) {@;<1 2>@[<v>%a@]@ }@]" pp_cond c pp_block t
  | If (c, t, f) ->
      Fmt.pf ppf "@[<v>if (%a) {@;<1 2>@[<v>%a@]@ } else {@;<1 2>@[<v>%a@]@ }@]"
        pp_cond c pp_block t pp_block f
  | While (c, body) ->
      Fmt.pf ppf "@[<v>while (%a) {@;<1 2>@[<v>%a@]@ }@]" pp_cond c pp_block body

and pp_block ppf stmts = Fmt.(list ~sep:cut pp_stmt) ppf stmts

let pp_program ppf program = Fmt.pf ppf "@[<v>%a@]" pp_block program

let to_source program = Fmt.str "%a@." pp_program program

let loc program =
  let src = to_source program in
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 src
