module Nfa = Automata.Nfa
module Store = Automata.Store
module System = Dprle.System

let t_analyze = Telemetry.Metrics.Timer.make "symexec.analyze"
let t_solve = Telemetry.Metrics.Timer.make "symexec.solve"

(* Symbolic strings: concatenations of literals and input reads, each
   read carrying a chain of pending sanitizers (outermost first): the
   value of [In (x, [f; g])] is [f(g(x))]. Every sanitizer has a
   transducer with regular preimages ({!Semantics.fst}), which is how
   a constraint on the transformed value is pulled back to the raw
   input. *)

(* RMA variable standing for the transformed read of an input *)
let slot_var input chain =
  List.fold_left (fun acc t -> acc ^ "~" ^ Semantics.name t) input chain

(* Prepend a sanitizer to a chain; adjacent ASCII case maps absorb. *)
let extend t chain =
  match (t, chain) with
  | (Ast.Lower | Ast.Upper), (Ast.Lower | Ast.Upper) :: rest -> t :: rest
  | _ -> t :: chain

type leaf = Lit of string | In of string * Ast.sanitizer list

type sym = leaf list

let map_sym t sym =
  List.map
    (function
      | Lit s -> Lit (Semantics.apply t s)
      | In (x, chain) -> In (x, extend t chain))
    sym

exception Unassigned_variable of Ast.expr

let () =
  Printexc.register_printer (function
    | Unassigned_variable (Ast.Var v) ->
        Some (Printf.sprintf "unassigned variable $%s" v)
    | _ -> None)

(* The symbolic store: each assigned local's symbolic value. *)
module Env = Map.Make (String)

let rec eval_sym env : Ast.expr -> sym = function
  | Ast.Str s -> if s = "" then [] else [ Lit s ]
  | Ast.Var v as read -> (
      match Env.find_opt v env with
      | Some s -> s
      | None -> raise (Unassigned_variable read))
  | Ast.Input name -> [ In (name, []) ]
  | Ast.Concat (a, b) -> eval_sym env a @ eval_sym env b
  | Ast.Sanitize (t, e) -> map_sym t (eval_sym env e)

(* Collapse adjacent literals so constraint systems stay small. *)
let normalize sym =
  let rec go = function
    | Lit a :: Lit b :: rest -> go (Lit (a ^ b) :: rest)
    | leaf :: rest -> leaf :: go rest
    | [] -> []
  in
  go sym

(* A path condition: the symbolic value must lie in the language. *)
type obligation = { sym : sym; lang : Store.handle }

type query = {
  path_id : int;
  sink_index : int;
  sink_id : int;
  system : System.t;
  benign_system : System.t;
      (* the same path constraints without the sink obligation: its
         solutions are inputs that reach the sink innocently, used to
         recover the query the program intended to issue *)
  input_vars : string list;
  slots : (string * string * Ast.sanitizer list) list;
      (* (system variable, input it reads, pending sanitizer chain) *)
  constraint_count : int;
}

(* Constant folding: a condition whose operand contains no input read
   has a concrete value; the executor then follows only the feasible
   branch instead of forking. This keeps path counts proportional to
   the number of input-dependent branches, as in any real symbolic
   executor. *)
let concrete_string sym =
  let rec go acc = function
    | [] -> Some (String.concat "" (List.rev acc))
    | Lit s :: rest -> go (s :: acc) rest
    | In _ :: _ -> None
  in
  go [] sym

let concrete_cond env c =
  Option.map (Semantics.holds c)
    (concrete_string (eval_sym env (Semantics.cond_operand c)))

(* Translate a condition (taken with polarity [value]) into an
   obligation on its symbolic operand. The language is the one the
   fixpoint refines the same branch with, which is what lets a sink it
   proves safe skip these systems. *)
let obligation_of_cond env value c =
  {
    sym = normalize (eval_sym env (Semantics.cond_operand c));
    lang = Semantics.cond_lang value c;
  }

(* Build a System.t from the accumulated obligations. Literals become
   named constants (deduplicated by content); the obligation languages
   become constants c0, c1, …. *)
let system_of_obligations obligations =
  let lit_table : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let consts = ref [] in
  let fresh_lit s =
    match Hashtbl.find_opt lit_table s with
    | Some name -> name
    | None ->
        let name = Printf.sprintf "lit%d" (Hashtbl.length lit_table) in
        Hashtbl.add lit_table s name;
        consts := (name, Store.of_word s) :: !consts;
        name
  in
  let leaf_expr = function
    | Lit s -> System.Const (fresh_lit s)
    | In (x, t) -> System.Var (slot_var x t)
  in
  let sym_expr sym =
    match sym with
    | [] -> System.Const (fresh_lit "")
    | first :: rest ->
        List.fold_left
          (fun acc leaf -> System.Concat (acc, leaf_expr leaf))
          (leaf_expr first) rest
  in
  let constraints =
    List.mapi
      (fun i { sym; lang } ->
        let cname = Printf.sprintf "c%d" i in
        consts := (cname, lang) :: !consts;
        { System.lhs = sym_expr sym; rhs = cname })
      obligations
  in
  System.make_exn ~consts:(List.rev !consts) ~constraints

type exploration = { candidates : query list; paths_truncated : bool }

(* Sink reachability, computed once per statement-list suffix: [reach]
   says control entering the suffix may issue a [query] before an
   [exit], [falls] that it may run off the suffix's end. Both ignore
   constant folding, so they over-approximate what the walk can do;
   a suffix with [reach = false] can never emit a candidate, which is
   all the walk below relies on. *)
type code = { reach : bool; falls : bool; step : step }

and step =
  | End
  | Exit
  | Assign of string * Ast.expr * code
  | Echo of code
  | Query of Ast.stmt * Ast.expr * code  (** the statement: its sink id *)
  | If of Ast.cond * code * code * code  (** then-arm, else-arm, rest *)
  | While of Ast.cond * code * code  (** body, rest *)

let rec annotate : Ast.program -> code = function
  | [] -> { reach = false; falls = true; step = End }
  | stmt :: rest ->
      let next = annotate rest in
      (* may the statement itself reach a query / complete normally *)
      let here reach falls step =
        { reach = reach || (falls && next.reach); falls = falls && next.falls; step }
      in
      (match stmt with
      | Ast.Exit -> here false false Exit
      | Ast.Assign (v, e) -> here false true (Assign (v, e, next))
      | Ast.Echo _ -> here false true (Echo next)
      | Ast.Query e -> here true true (Query (stmt, e, next))
      | Ast.If (c, t, f) ->
          let t = annotate t and f = annotate f in
          here (t.reach || f.reach) (t.falls || f.falls) (If (c, t, f, next))
      | Ast.While (c, body) ->
          let body = annotate body in
          here body.reach true (While (c, body, next)))

(* The continuation of the code being walked: the suffixes to resume,
   innermost first, each paired with the reach of itself and
   everything below it, so asking whether a position can still reach
   a sink costs O(1) however deep the nesting. *)
let reaches code k =
  code.reach || (code.falls && match k with [] -> false | (_, r) :: _ -> r)

let push code k = (code, reaches code k) :: k

(* Loop iterations unrolled along one path, by [analyze] and [census]
   alike, so a census predicts the enumeration exactly. *)
let max_unroll = 16

(* The one path walk, shared by [analyze] and [census]. A DFS over
   branch decisions that extends a path value ['p] at every decision
   ([branch env value cond p]) and hands each reached sink to [sink].
   A fork is an [If]/[While] whose condition is not constant; an arm
   whose continuation can reach no sink is not explored, and a fork
   with one live arm still counts as one fork (path ids stay the
   DFS's fork count). [max_paths] bounds the forks; [fuel] bounds the
   loop iterations unrolled along one path. Cutting a live arm — past
   [max_paths], or a loop out of fuel — marks the walk truncated;
   cutting code that reaches no sink does not. *)
let walk ~max_paths ~branch ~sink init program =
  let forks = ref 0 in
  let truncated = ref false in
  let rec exec env p sink_index fuel code k =
    if reaches code k then
      match code.step with
      | End -> (
          match k with
          | [] -> ()
          | (code, _) :: k -> exec env p sink_index fuel code k)
      | Exit -> ()
      | Assign (v, e, next) ->
          exec (Env.add v (normalize (eval_sym env e)) env) p sink_index fuel
            next k
      | Echo next -> exec env p sink_index fuel next k
      | Query (stmt, e, next) ->
          sink env stmt e p ~sink_index:!sink_index ~path_id:!forks;
          incr sink_index;
          exec env p sink_index fuel next k
      | If (c, t, f, next) -> (
          let k = push next k in
          match concrete_cond env c with
          | Some true -> exec env p sink_index fuel t k
          | Some false -> exec env p sink_index fuel f k
          | None -> fork env p sink_index c (t, fuel, k) (f, fuel, k))
      | While (c, body, next) -> (
          (* unroll: the taken arm re-queues the loop itself, so a sink
             inside the body keeps its physical identity (and hence its
             sink id) across iterations *)
          let again = push code k in
          match concrete_cond env c with
          | Some false -> exec env p sink_index fuel next k
          | Some true ->
              (* concretely spinning with no fuel left: this path's
                 suffix is unexplored *)
              if fuel > 0 then exec env p sink_index (fuel - 1) body again
              else truncated := true
          | None -> fork env p sink_index c (body, fuel - 1, again) (next, fuel, k))
  and fork env p sink_index c (t, t_fuel, t_k) (f, f_fuel, f_k) =
    let t_live = reaches t t_k and f_live = reaches f f_k in
    if t_live || f_live then
      if !forks >= max_paths then truncated := true
      else begin
        incr forks;
        if t_live then
          if t_fuel < 0 then truncated := true
          else exec env (branch env true c p) (ref !sink_index) t_fuel t t_k;
        if f_live then
          exec env (branch env false c p) (ref !sink_index) f_fuel f f_k
      end
  in
  exec Env.empty init (ref 0) max_unroll (annotate program) [];
  (!forks, !truncated)

type census = { candidates : int; forks : int; truncated : bool }

let census ~max_paths program =
  let candidates = ref 0 in
  let forks, truncated =
    walk ~max_paths
      ~branch:(fun _ _ _ () -> ())
      ~sink:(fun _ _ _ () ~sink_index:_ ~path_id:_ -> incr candidates)
      () program
  in
  { candidates = !candidates; forks; truncated }

let analyze ?(max_paths = 256) ~attack program =
  Telemetry.Span.with_span ~name:"symexec.analyze"
    ~attrs:[ ("max_paths", `Int max_paths); ("max_unroll", `Int max_unroll) ]
  @@ fun () ->
  Telemetry.Metrics.Timer.time t_analyze @@ fun () ->
  (* one interned attack language for every sink on every path — and,
     in directory mode, for every file sharing the attack pattern *)
  let attack = Store.intern attack in
  let results = ref [] in
  (* the path value: its obligations, in reverse *)
  let branch env value c obligations =
    obligation_of_cond env value c :: obligations
  in
  let emit env stmt e obligations ~sink_index ~path_id =
    let sink_id = Option.value (Ast.sink_id program stmt) ~default:(-1) in
    let benign_obligations = List.rev obligations in
    (* the sink obligation is the last one *)
    let obligations =
      benign_obligations @ [ { sym = normalize (eval_sym env e); lang = attack } ]
    in
    (* drop obligations on purely-literal symbolic values only if they
       are trivially satisfiable; keep them otherwise so infeasible
       paths solve to Unsat *)
    let system = system_of_obligations obligations in
    let benign_system = system_of_obligations benign_obligations in
    (* |C| counts what the decision procedure consumes: the edges of
       the dependency graph — one ⊆-edge per obligation plus one
       ∘-edge pair per concatenation (Fig. 5 of the paper). *)
    let graph = Dprle.Depgraph.of_system system in
    let constraint_count =
      List.length graph.subsets + List.length graph.concats
    in
    (* which (system variable, input, transform) triples occur: the
       same input may be read plainly and through a case map *)
    let slots =
      List.sort_uniq compare
        (List.concat_map
           (fun { sym; _ } ->
             List.filter_map
               (function
                 | Lit _ -> None
                 | In (x, t) -> Some (slot_var x t, x, t))
               sym)
           obligations)
    in
    let input_vars =
      List.sort_uniq compare (List.map (fun (_, x, _) -> x) slots)
    in
    results :=
      {
        path_id;
        sink_index;
        sink_id;
        system;
        benign_system;
        input_vars;
        slots;
        constraint_count;
      }
      :: !results
  in
  let _forks, truncated =
    walk ~max_paths ~branch ~sink:emit [] program
  in
  { candidates = List.rev !results; paths_truncated = truncated }

(* A transformed read constrains the transformed value; pull the
   solved language back to the raw input through the chain's
   transducer preimages, outermost first. A plain read keeps the
   solver's handle. *)
let pull_back chain h =
  if chain = [] then h
  else
    let preimage acc t = Automata.Fst.preimage (Semantics.fst t) acc in
    Store.intern (List.fold_left preimage (Store.minimized h) chain)

(* The RMA solver treats [x] and [lower(x)] as independent variables;
   a disjunct is usable only if, per input, the intersection of all
   pulled-back slot languages is nonempty. Try disjuncts in order. *)
let input_languages query assignment =
  let exception Dead in
  try
    Some
      (Dprle.Assignment.of_list
         (List.filter_map
            (fun input ->
              let langs =
                List.filter_map
                  (fun (var, x, t) ->
                    if x <> input then None
                    else
                      Option.map (pull_back t)
                        (Dprle.Assignment.find_opt assignment var))
                  query.slots
              in
              match langs with
              | [] -> None
              | first :: rest ->
                  let h = List.fold_left Store.inter_lang first rest in
                  if Store.is_empty h then raise Dead else Some (input, h))
            query.input_vars))
  with Dead -> None

type budget_status = Within_budget | Budget_exceeded of Automata.Budget.stop

type provenance = Witnessed | Unknown

let pp_provenance ppf = function
  | Witnessed -> Fmt.string ppf "witnessed"
  | Unknown -> Fmt.string ppf "unknown"

type verdict = {
  assignment : Dprle.Assignment.t option;
  slot_languages : (string * Store.handle) list;
  budget : budget_status;
  provenance : provenance;
}

(* Goal-directed solving: the sink obligation is always the system's
   last constraint ([emit] reverses the path-ordered accumulator), and
   its variables seed the analyzer's cone-of-influence slicing — path
   conditions on inputs the sink never reads are discharged with
   witnesses instead of solved. The slot variables must ride along as
   goals too: [input_languages] pulls exploit inputs back through
   every slot's full solved language, and a sliced slot would collapse
   to one arbitrary witness word (sound for the verdict, useless for
   reconstruction — a case-mapped filter var pinned to one spelling
   can make a real exploit unrecoverable). *)
let sink_goals query =
  let sink_vars =
    match List.rev (Dprle.System.constraints query.system) with
    | [] -> []
    | { Dprle.System.lhs; _ } :: _ ->
        let rec vars acc = function
          | Dprle.System.Var v -> v :: acc
          | Dprle.System.Const _ -> acc
          | Dprle.System.Concat (a, b) | Dprle.System.Union (a, b) ->
              vars (vars acc a) b
        in
        vars [] lhs
  in
  List.sort_uniq String.compare
    (sink_vars @ List.map (fun (var, _, _) -> var) query.slots)

let solve ?(config = Dprle.Solver.Config.default) query =
  Telemetry.Span.with_span ~name:"symexec.solve"
    ~attrs:
      [
        ("path_id", `Int query.path_id);
        ("sink_index", `Int query.sink_index);
        ("constraints", `Int query.constraint_count);
      ]
  @@ fun () ->
  Telemetry.Metrics.Timer.time t_solve @@ fun () ->
  let safe =
    {
      assignment = None;
      slot_languages = [];
      budget = Within_budget;
      provenance = Unknown;
    }
  in
  (* The winning disjunct's per-slot languages, before pull-back:
     what each system variable (e.g. [x~lower]) may evaluate to. *)
  let slot_languages_of disjunct =
    List.filter_map
      (fun (var, _, _) ->
        Option.map (fun l -> (var, l)) (Dprle.Assignment.find_opt disjunct var))
      query.slots
  in
  let goals = sink_goals query in
  let attempt max_solutions =
    match
      Dprle.Solver.run
        { config with Dprle.Solver.Config.max_solutions; goals }
        query.system
    with
    | Error (Dprle.Solver.Error.Budget_exceeded stop) ->
        Error (Budget_exceeded stop)
    | Ok (Dprle.Solver.Unsat _) -> Ok None
    | Ok (Dprle.Solver.Sat disjuncts) ->
        Ok
          (List.find_map
             (fun d ->
               Option.map (fun inputs -> (d, inputs)) (input_languages query d))
             disjuncts)
  in
  match attempt 1 with
  | Error budget -> { safe with budget }
  | Ok (Some (d, inputs)) ->
      {
        assignment = Some inputs;
        slot_languages = slot_languages_of d;
        budget = Within_budget;
        provenance = Witnessed;
      }
  | Ok None -> (
      (* only case-mapped reads can make the first disjunct unusable
         while a later one works — don't pay for enumeration otherwise *)
      if not (List.exists (fun (_, _, chain) -> chain <> []) query.slots) then
        safe
      else
        match attempt 16 with
        | Error budget -> { safe with budget }
        | Ok (Some (d, inputs)) ->
            {
              assignment = Some inputs;
              slot_languages = slot_languages_of d;
              budget = Within_budget;
              provenance = Witnessed;
            }
        | Ok None -> safe)

(* Inputs that reach the same sink without the attack constraint:
   used to reconstruct the intended query for structural comparison. *)
let benign_inputs ?(config = Dprle.Solver.Config.default) query =
  match
    Dprle.Solver.run { config with max_solutions = 4 } query.benign_system
  with
  | Ok (Dprle.Solver.Sat disjuncts) ->
      List.find_map (input_languages query) disjuncts
  | Ok (Dprle.Solver.Unsat _) | Error _ -> None

(* the value of an input no exploit language constrains *)
let default_value = "a"

let exploit_inputs query assignment =
  List.map
    (fun input ->
      match Dprle.Assignment.find_opt assignment input with
      | Some h -> (
          match Nfa.shortest_word (Store.minimized h) with
          | Some w -> (input, w)
          | None -> (input, default_value))
      | None -> (input, default_value))
    query.input_vars

(* inputs the program reads but the path never constrains get a
   harmless default, as in the paper's [posted_userid = a] *)
let with_defaults program inputs =
  inputs
  @ List.filter_map
      (fun input ->
        if List.mem_assoc input inputs then None else Some (input, default_value))
      (Ast.inputs program)

let first_exploit ?max_paths ~attack program =
  let { candidates; paths_truncated = _ } = analyze ?max_paths ~attack program in
  List.find_map
    (fun query ->
      Option.map
        (fun a -> with_defaults program (exploit_inputs query a))
        (solve query).assignment)
    candidates
