type error = { line : int; col : int; message : string }

let pp_error ppf { line; col; message } =
  Fmt.pf ppf "%d:%d: %s" line col message

exception Failed of error

type cursor = {
  input : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;
  mutable reads : (Ast.expr * (int * int)) list;
      (** every [Ast.Var] node built, with the line and column of its [$] *)
}

let fail cur message =
  raise (Failed { line = cur.line; col = cur.pos - cur.bol + 1; message })

let peek cur = if cur.pos < String.length cur.input then Some cur.input.[cur.pos] else None

let peek2 cur =
  if cur.pos + 1 < String.length cur.input then Some cur.input.[cur.pos + 1] else None

let advance cur =
  (match peek cur with
  | Some '\n' ->
      cur.line <- cur.line + 1;
      cur.bol <- cur.pos + 1
  | _ -> ());
  cur.pos <- cur.pos + 1

let rec skip_trivia cur =
  match peek cur with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance cur;
      skip_trivia cur
  | Some '/' when peek2 cur = Some '/' ->
      let rec to_eol () =
        match peek cur with
        | Some '\n' | None -> ()
        | Some _ ->
            advance cur;
            to_eol ()
      in
      to_eol ();
      skip_trivia cur
  | _ -> ()

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let lex_name cur =
  let start = cur.pos in
  while (match peek cur with Some c -> is_name_char c | None -> false) do
    advance cur
  done;
  if cur.pos = start then fail cur "expected identifier";
  String.sub cur.input start (cur.pos - start)

let expect_char cur c =
  skip_trivia cur;
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let lex_string cur =
  expect_char cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
        advance cur;
        (match peek cur with
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some (('"' | '\\') as c) -> Buffer.add_char buf c
        | Some c -> fail cur (Printf.sprintf "unknown escape \\%c" c)
        | None -> fail cur "unterminated string");
        advance cur;
        go ()
    | Some c ->
        Buffer.add_char buf c;
        advance cur;
        go ()
  in
  go ();
  Buffer.contents buf

let lex_pattern cur =
  expect_char cur '/';
  let buf = Buffer.create 16 in
  Buffer.add_char buf '/';
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated /pattern/"
    | Some '/' ->
        advance cur;
        Buffer.add_char buf '/'
    | Some '\\' ->
        advance cur;
        Buffer.add_char buf '\\';
        (match peek cur with
        | Some c ->
            Buffer.add_char buf c;
            advance cur
        | None -> fail cur "unterminated /pattern/");
        go ()
    | Some c ->
        Buffer.add_char buf c;
        advance cur;
        go ()
  in
  go ();
  match Regex.Parser.parse_pattern (Buffer.contents buf) with
  | Ok p -> p
  | Error e -> fail cur (Fmt.str "bad pattern: %a" Regex.Parser.pp_error e)

let rec parse_atom cur =
  skip_trivia cur;
  match peek cur with
  | Some '"' -> Ast.Str (lex_string cur)
  | Some '$' ->
      let at = (cur.line, cur.pos - cur.bol + 1) in
      advance cur;
      let read = Ast.Var (lex_name cur) in
      cur.reads <- (read, at) :: cur.reads;
      read
  | Some c when is_name_char c -> (
      let name = lex_name cur in
      match name with
      | "input" ->
          expect_char cur '(';
          skip_trivia cur;
          let arg = lex_string cur in
          expect_char cur ')';
          Ast.Input arg
      | ("strtolower" | "strtoupper" | "addslashes") as f ->
          expect_char cur '(';
          let e = parse_expr cur in
          expect_char cur ')';
          let s =
            match f with
            | "strtolower" -> Ast.Lower
            | "strtoupper" -> Ast.Upper
            | _ -> Ast.Addslashes
          in
          Ast.Sanitize (s, e)
      | "str_replace" ->
          expect_char cur '(';
          skip_trivia cur;
          let needle = lex_string cur in
          if String.length needle <> 1 then
            fail cur "str_replace: single-character needle expected";
          expect_char cur ',';
          skip_trivia cur;
          let replacement = lex_string cur in
          expect_char cur ',';
          let e = parse_expr cur in
          expect_char cur ')';
          Ast.Sanitize (Ast.Replace (needle.[0], replacement), e)
      | _ ->
          fail cur
            "expected input(...), strtolower(...), strtoupper(...), $var, or \
             \"string\"")
  | _ -> fail cur "expected expression"

and parse_expr cur =
  let first = parse_atom cur in
  skip_trivia cur;
  match peek cur with
  | Some '.' ->
      advance cur;
      Ast.Concat (first, parse_expr cur)
  | _ -> first

let rec parse_cond cur =
  skip_trivia cur;
  match peek cur with
  | Some '!' ->
      advance cur;
      Ast.Not (parse_cond cur)
  | Some '(' ->
      advance cur;
      let c = parse_cond cur in
      expect_char cur ')';
      c
  | Some c when is_name_char c ->
      let save = (cur.pos, cur.line, cur.bol) in
      let name = lex_name cur in
      if name = "preg_match" then begin
        expect_char cur '(';
        skip_trivia cur;
        let pattern = lex_pattern cur in
        expect_char cur ',';
        let e = parse_expr cur in
        expect_char cur ')';
        Ast.Preg_match (pattern, e)
      end
      else if name = "strlen" then begin
        expect_char cur '(';
        let e = parse_expr cur in
        expect_char cur ')';
        skip_trivia cur;
        let cmp =
          match (peek cur, peek2 cur) with
          | Some '=', Some '=' ->
              advance cur;
              advance cur;
              Ast.Len_eq
          | Some '<', Some '=' ->
              advance cur;
              advance cur;
              Ast.Len_le
          | Some '>', Some '=' ->
              advance cur;
              advance cur;
              Ast.Len_ge
          | _ -> fail cur "expected ==, <=, or >= after strlen(...)"
        in
        skip_trivia cur;
        let start = cur.pos in
        while (match peek cur with Some '0' .. '9' -> true | _ -> false) do
          advance cur
        done;
        if cur.pos = start then fail cur "expected length bound";
        let n = int_of_string (String.sub cur.input start (cur.pos - start)) in
        Ast.Strlen (e, cmp, n)
      end
      else begin
        (* an equality whose left side starts with input(...) *)
        let p, l, b = save in
        cur.pos <- p;
        cur.line <- l;
        cur.bol <- b;
        parse_equality cur
      end
  | Some ('$' | '"') -> parse_equality cur
  | _ -> fail cur "expected condition"

and parse_equality cur =
  let e = parse_expr cur in
  skip_trivia cur;
  expect_char cur '=';
  expect_char cur '=';
  skip_trivia cur;
  let s = lex_string cur in
  Ast.Str_eq (e, s)

let rec parse_block cur =
  expect_char cur '{';
  let stmts = parse_stmts cur in
  expect_char cur '}';
  stmts

and parse_stmts cur =
  skip_trivia cur;
  match peek cur with
  | None | Some '}' -> []
  | _ ->
      let s = parse_stmt cur in
      s :: parse_stmts cur

and parse_stmt cur =
  skip_trivia cur;
  match peek cur with
  | Some '$' ->
      advance cur;
      let v = lex_name cur in
      skip_trivia cur;
      expect_char cur '=';
      let e = parse_expr cur in
      expect_char cur ';';
      Ast.Assign (v, e)
  | Some c when is_name_char c -> (
      let name = lex_name cur in
      match name with
      | "exit" ->
          expect_char cur ';';
          Ast.Exit
      | "query" ->
          expect_char cur '(';
          let e = parse_expr cur in
          expect_char cur ')';
          expect_char cur ';';
          Ast.Query e
      | "echo" ->
          let e = parse_expr cur in
          expect_char cur ';';
          Ast.Echo e
      | "if" ->
          expect_char cur '(';
          let cond = parse_cond cur in
          expect_char cur ')';
          let then_branch = parse_block cur in
          skip_trivia cur;
          let else_branch =
            let save = (cur.pos, cur.line, cur.bol) in
            match peek cur with
            | Some 'e' ->
                let name = lex_name cur in
                if name = "else" then parse_block cur
                else begin
                  let p, l, b = save in
                  cur.pos <- p;
                  cur.line <- l;
                  cur.bol <- b;
                  []
                end
            | _ -> []
          in
          Ast.If (cond, then_branch, else_branch)
      | "while" ->
          expect_char cur '(';
          let cond = parse_cond cur in
          expect_char cur ')';
          let body = parse_block cur in
          Ast.While (cond, body)
      | kw -> fail cur (Printf.sprintf "unknown statement '%s'" kw))
  | _ -> fail cur "expected statement"

type reads = (Ast.expr * (int * int)) list

let parse_located input =
  let cur = { input; pos = 0; line = 1; bol = 0; reads = [] } in
  match
    let program = parse_stmts cur in
    skip_trivia cur;
    (match peek cur with
    | None -> ()
    | Some _ -> fail cur "trailing input");
    program
  with
  | program -> Ok (program, cur.reads)
  | exception Failed e -> Error e

let parse input = Result.map fst (parse_located input)

let read_error reads read ~message =
  let line, col = List.assq read reads in
  { line; col; message }

let parse_exn input =
  match parse input with
  | Ok p -> p
  | Error e -> invalid_arg (Fmt.str "Webapp.Lang_parser.parse_exn: %a" pp_error e)
