type error = { line : int; col : int; message : string }

let pp_error ppf { line; col; message } =
  Fmt.pf ppf "%d:%d: %s" line col message

exception Failed of error

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)

type token =
  | Tlet
  | Tname of string
  | Tpattern of string  (* body between the slashes, verbatim *)
  | Tstring of string  (* decoded literal *)
  | Teq
  | Tsubset
  | Tdot
  | Tpipe
  | Tlparen
  | Trparen
  | Tsemi
  | Teof

type lexer = { input : string; mutable pos : int; mutable line : int; mutable bol : int }

let fail_at lx message =
  raise (Failed { line = lx.line; col = lx.pos - lx.bol + 1; message })

let peek_char lx =
  if lx.pos < String.length lx.input then Some lx.input.[lx.pos] else None

let advance lx =
  (match peek_char lx with
  | Some '\n' ->
      lx.line <- lx.line + 1;
      lx.bol <- lx.pos + 1
  | _ -> ());
  lx.pos <- lx.pos + 1

let rec skip_trivia lx =
  match peek_char lx with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance lx;
      skip_trivia lx
  | Some '#' ->
      let rec to_eol () =
        match peek_char lx with
        | Some '\n' | None -> ()
        | Some _ ->
            advance lx;
            to_eol ()
      in
      to_eol ();
      skip_trivia lx
  | _ -> ()

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let lex_name lx =
  let start = lx.pos in
  while (match peek_char lx with Some c -> is_name_char c | None -> false) do
    advance lx
  done;
  String.sub lx.input start (lx.pos - start)

(* /…/ with \/ as an escaped slash; the body is handed to the regex
   pattern parser untouched otherwise. *)
let lex_pattern lx =
  advance lx (* opening slash *);
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char lx with
    | None -> fail_at lx "unterminated /pattern/"
    | Some '/' -> advance lx
    | Some '\\' ->
        advance lx;
        (match peek_char lx with
        | Some '/' ->
            Buffer.add_char buf '/';
            advance lx
        | Some c ->
            Buffer.add_char buf '\\';
            Buffer.add_char buf c;
            advance lx
        | None -> fail_at lx "unterminated /pattern/");
        go ()
    | Some c ->
        Buffer.add_char buf c;
        advance lx;
        go ()
  in
  go ();
  Buffer.contents buf

let lex_string lx =
  advance lx (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char lx with
    | None -> fail_at lx "unterminated string literal"
    | Some '"' -> advance lx
    | Some '\\' ->
        advance lx;
        (match peek_char lx with
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some '0' -> Buffer.add_char buf '\000'
        | Some (('"' | '\\') as c) -> Buffer.add_char buf c
        | Some c -> fail_at lx (Printf.sprintf "unknown escape \\%c" c)
        | None -> fail_at lx "unterminated string literal");
        advance lx;
        go ()
    | Some c ->
        Buffer.add_char buf c;
        advance lx;
        go ()
  in
  go ();
  Buffer.contents buf

let next_token lx =
  skip_trivia lx;
  match peek_char lx with
  | None -> Teof
  | Some '=' ->
      advance lx;
      Teq
  | Some '<' ->
      advance lx;
      (match peek_char lx with
      | Some '=' ->
          advance lx;
          Tsubset
      | _ -> fail_at lx "expected '<='")
  | Some '.' ->
      advance lx;
      Tdot
  | Some '|' ->
      advance lx;
      Tpipe
  | Some '(' ->
      advance lx;
      Tlparen
  | Some ')' ->
      advance lx;
      Trparen
  | Some ';' ->
      advance lx;
      Tsemi
  | Some '/' -> Tpattern (lex_pattern lx)
  | Some '"' -> Tstring (lex_string lx)
  | Some c when is_name_char c ->
      let name = lex_name lx in
      if name = "let" then Tlet else Tname name
  | Some c -> fail_at lx (Printf.sprintf "unexpected character %C" c)

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)

type parser_state = { lx : lexer; mutable tok : token }

let bump st = st.tok <- next_token st.lx

let expect st tok what =
  if st.tok = tok then bump st else fail_at st.lx ("expected " ^ what)

let parse_const_value st =
  match st.tok with
  | Tpattern body ->
      bump st;
      (* keyed by its text, so a warm store that already holds this
         pattern hands its handle back without compiling it *)
      (match Regex.Compile.pattern_of_text body with
      | Ok h -> h
      | Error e -> fail_at st.lx (Fmt.str "bad pattern: %a" Regex.Parser.pp_error e))
  | Tstring s ->
      bump st;
      (* via the store's word path so repeated literals share one
         keyed handle *)
      Automata.Store.of_word s
  | _ -> fail_at st.lx "expected /pattern/ or \"string\""

let parse st =
  let consts = ref [] in
  let constraints = ref [] in
  let goals = ref [] in
  let defined name = List.mem_assoc name !consts in
  let leaf name = if defined name then System.Const name else System.Var name in
  (* lhs := term ('|' term)*;  term := factor ('.' factor)*;
     factor := NAME | '(' lhs ')' *)
  let rec parse_lhs () =
    let first = parse_term () in
    match st.tok with
    | Tpipe ->
        bump st;
        System.Union (first, parse_lhs ())
    | _ -> first
  and parse_term () =
    let first = parse_factor () in
    match st.tok with
    | Tdot ->
        bump st;
        System.Concat (first, parse_term ())
    | _ -> first
  and parse_factor () =
    match st.tok with
    | Tname name ->
        bump st;
        leaf name
    | Tlparen ->
        bump st;
        let inner = parse_lhs () in
        (match st.tok with
        | Trparen -> bump st
        | _ -> fail_at st.lx "expected ')'");
        inner
    | _ -> fail_at st.lx "expected operand"
  in
  let rec stmts () =
    match st.tok with
    | Teof -> ()
    | Tlet ->
        bump st;
        let name =
          match st.tok with
          | Tname n ->
              bump st;
              n
          | _ -> fail_at st.lx "expected constant name after let"
        in
        if defined name then
          fail_at st.lx (Printf.sprintf "duplicate constant %S" name);
        expect st Teq "'='";
        let value = parse_const_value st in
        expect st Tsemi "';'";
        consts := (name, value) :: !consts;
        stmts ()
    (* [goal v1 v2;] — disambiguated by the lookahead: a bare [goal]
       followed by another name is a declaration; anything else (e.g.
       [goal <= c;]) still parses as a constraint over a variable that
       happens to be named "goal". *)
    | Tname "goal" when (skip_trivia st.lx;
                         match peek_char st.lx with
                         | Some c -> is_name_char c
                         | None -> false) ->
        bump st;
        let rec names () =
          match st.tok with
          | Tname n ->
              bump st;
              if defined n then
                fail_at st.lx (Printf.sprintf "goal %S names a constant" n);
              goals := n :: !goals;
              names ()
          | _ -> ()
        in
        names ();
        expect st Tsemi "';'";
        stmts ()
    | Tname _ | Tlparen ->
        let lhs = parse_lhs () in
        expect st Tsubset "'<='";
        let rhs =
          match st.tok with
          | Tname n ->
              bump st;
              n
          | _ -> fail_at st.lx "expected constant name on the right of '<='"
        in
        if not (defined rhs) then
          fail_at st.lx
            (Printf.sprintf "right-hand side %S is not a defined constant" rhs);
        expect st Tsemi "';'";
        constraints := { System.lhs; rhs } :: !constraints;
        stmts ()
    | _ -> fail_at st.lx "expected 'let' or a constraint"
  in
  stmts ();
  match
    System.make ~consts:(List.rev !consts) ~constraints:(List.rev !constraints)
  with
  | Ok system -> System.with_goals system (List.rev !goals)
  | Error msg -> fail_at st.lx msg

let parse input =
  let lx = { input; pos = 0; line = 1; bol = 0 } in
  let st = { lx; tok = Teof } in
  match
    bump st;
    parse st
  with
  | system -> Ok system
  | exception Failed e -> Error e

let parse_exn input =
  match parse input with
  | Ok system -> system
  | Error e -> invalid_arg (Fmt.str "Sysparse.parse_exn: %a" pp_error e)

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))
