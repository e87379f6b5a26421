module Nfa = Automata.Nfa
module Store = Automata.Store
module Budget = Automata.Budget

(* Analyzer-level metrics, alongside the solver's counters in the
   default registry. "sliced"/"discharged" count constraints the
   solver never saw — the analyzer's whole value proposition. *)
let c_sliced_vars = Telemetry.Metrics.Counter.make "analyze.sliced.vars"

let c_sliced_constraints =
  Telemetry.Metrics.Counter.make "analyze.sliced.constraints"

let c_discharged = Telemetry.Metrics.Counter.make "analyze.discharged"
let c_deduped = Telemetry.Metrics.Counter.make "analyze.deduped"
let c_folded = Telemetry.Metrics.Counter.make "analyze.folded"
let c_refuted = Telemetry.Metrics.Counter.make "analyze.refuted"

(* One timer series per pass, so `dprle profile` and --metrics say
   which pass the analyzer's time went to. *)
let t_pass = Telemetry.Metrics.Timer.make "analyze.pass"
let timed pass f = Telemetry.Metrics.Timer.time t_pass ~labels:[ ("pass", pass) ] f

type cause =
  | Empty_var of string
  | Bound_empty of string
  | Const_expr of string

let pp_cause ppf = function
  | Empty_var v ->
      Fmt.pf ppf "variable %s is constrained to the empty language" v
  | Bound_empty alt ->
      Fmt.pf ppf
        "bounds propagation forces concatenation %s to the empty language" alt
  | Const_expr alt ->
      Fmt.pf ppf "constant-only alternative %s violates its subset constraint"
        alt

type refute = { cause : cause; core : System.constr list }

type bound = { contributions : int; witness : string option }

type stats = {
  folded : int;
  deduped : int;
  discharged : int;
  sliced_vars : string list;
  sliced_constraints : int;
}

type t = {
  system : System.t;
  refute : refute option;
  witnesses : (string * string) list;
  bounds : (string * bound) list Lazy.t;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Shared helpers over union-free alternatives.                       *)

let expr_of_leaves = function
  | [] -> invalid_arg "Analyze.expr_of_leaves: empty"
  | first :: rest ->
      List.fold_left (fun acc l -> System.Concat (acc, l)) first rest

let is_const = function System.Const _ -> true | _ -> false

let alt_vars ls =
  List.filter_map (function System.Var v -> Some v | _ -> None) ls

let vars_of_constrs constrs =
  List.sort_uniq String.compare
    (List.concat_map (fun c -> System.expr_variables c.System.lhs) constrs)

(* Bound refinement is skipped (soundly: the bound just stays coarser)
   once an operand machine outgrows this, so analysis never builds the
   large products that are the solver's own job. *)
let state_cap = 512

let handle_size h = Nfa.num_states (Store.nfa h)

(* ------------------------------------------------------------------ *)
(* Core minimization: ddmin's reduction phase, one linear pass trying
   to drop each constraint while the oracle still refutes. *)

let minimize_core ~check core =
  let rec go kept = function
    | [] -> List.rev kept
    | c :: rest -> (
        match check (List.rev_append kept rest) with
        | true -> go kept rest
        | false -> go (c :: kept) rest
        | exception Budget.Exceeded _ ->
            (* out of budget mid-shrink: the current candidate still
               refutes (only proven-removable constraints are gone) *)
            List.rev_append kept (c :: rest))
  in
  go [] core

(* ------------------------------------------------------------------ *)
(* Pass 1 — normalization: constant-run folding, duplicate-constraint
   dedup.                                                             *)

type norm = {
  norm_constrs : System.constr list;
  extra_consts : (string * Store.handle) list;
  norm_folded : int;
  norm_deduped : int;
}

let normalize system =
  (* fresh constants for folded runs must clash with nothing *)
  let taken = Hashtbl.create 16 in
  List.iter (fun (n, _) -> Hashtbl.replace taken n ()) (System.constants system);
  List.iter (fun v -> Hashtbl.replace taken v ()) (System.variables system);
  List.iter (fun g -> Hashtbl.replace taken g ()) (System.goals system);
  let extra = ref [] in
  let folded = ref 0 in
  let fold_memo = Hashtbl.create 8 in
  let fold_run names =
    let key = String.concat "\x00" names in
    match Hashtbl.find_opt fold_memo key with
    | Some n -> n
    | None ->
        let rec fresh n = if Hashtbl.mem taken n then fresh (n ^ "'") else n in
        let name = fresh (String.concat "." names) in
        let h = Residual.run (List.map (System.const_handle system) names) in
        Hashtbl.replace taken name ();
        Hashtbl.replace fold_memo key name;
        extra := (name, h) :: !extra;
        name
  in
  let rebuild_alt alt =
    let flush acc run =
      match List.rev run with
      | [] -> acc
      | [ c ] -> System.Const c :: acc
      | names ->
          folded := !folded + List.length names;
          System.Const (fold_run names) :: acc
    in
    let rec go acc run = function
      | [] -> List.rev (flush acc run)
      | System.Const c :: rest -> go acc (c :: run) rest
      | leaf :: rest -> go (leaf :: flush acc run) [] rest
    in
    expr_of_leaves (go [] [] (System.leaves alt))
  in
  let rebuild c =
    Budget.tick ();
    let lhs =
      match List.map rebuild_alt (System.expand_unions c.System.lhs) with
      | [] -> assert false
      | a :: rest -> List.fold_left (fun acc x -> System.Union (acc, x)) a rest
    in
    { c with System.lhs }
  in
  let rebuilt = List.map rebuild (System.constraints system) in
  let seen = Hashtbl.create 16 in
  let deduped = ref 0 in
  let uniq =
    List.filter
      (fun c ->
        let key = Fmt.str "%a" System.pp_constr c in
        if Hashtbl.mem seen key then begin
          incr deduped;
          false
        end
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      rebuilt
  in
  {
    norm_constrs = uniq;
    extra_consts = List.rev !extra;
    norm_folded = !folded;
    norm_deduped = !deduped;
  }

(* ------------------------------------------------------------------ *)
(* Pass 2 — bounds propagation.

   Per-variable upper bounds are meets of handles contributed by the
   constraints: the right-hand constant for a bare [v ⊆ c]
   alternative, and the universal residual {w | pre·w·post ⊆ c}
   (exact, {!Residual.bound}) for a single-variable alternative
   between constant runs. Multi-variable alternatives are checked
   forward: the concatenation of leaf bounds over-approximates the
   alternative's language, and every admissible assignment keeps each
   variable nonempty, so a forward bound disjoint from the right-hand
   constant refutes the system. Each contribution is tagged with its
   constraint index — that is what cores, discharge exclusion, and
   blame are made of. *)

exception Refuted of cause * int list

let const_handles system ls =
  List.filter_map
    (function System.Const c -> Some (System.const_handle system c) | _ -> None)
    ls

(* Normalization has folded each constant run into one constant, so
   [pre] and [post] hold at most one leaf each: capping the leaves caps
   the runs. *)
let residual_handle ~pre ~post ~upper =
  if List.exists (fun h -> handle_size h > state_cap) ((upper :: pre) @ post) then None
  else Some (Residual.bound ~pre ~post ~upper)

type contribs = (string, (int * Store.handle) list) Hashtbl.t

(* contributions per variable + the multi-variable alternatives left
   for the forward check; raises [Refuted] on a failed constant-only
   inclusion *)
let collect system constrs : contribs * (int * System.expr list * Store.handle) list =
  let contribs : contribs = Hashtbl.create 16 in
  let add v i h =
    let existing = Option.value (Hashtbl.find_opt contribs v) ~default:[] in
    Hashtbl.replace contribs v ((i, h) :: existing)
  in
  let forward = ref [] in
  List.iteri
    (fun i { System.lhs; rhs } ->
      let rhs_h = System.const_handle system rhs in
      List.iter
        (fun alt ->
          Budget.tick ();
          let ls = System.leaves alt in
          match alt_vars ls with
          | [] ->
              if not (Store.subset (Residual.run (const_handles system ls)) rhs_h)
              then
                raise
                  (Refuted
                     (Const_expr (Fmt.str "%a" System.pp_expr alt), [ i ]))
          | [ v ] -> (
              match ls with
              | [ System.Var _ ] -> add v i rhs_h
              | _ -> (
                  let rec split pre = function
                    | (System.Const _ as c) :: rest -> split (c :: pre) rest
                    | System.Var _ :: rest ->
                        (const_handles system (List.rev pre), const_handles system rest)
                    | (System.Concat _ | System.Union _) :: _ | [] ->
                        assert false
                  in
                  let pre, post = split [] ls in
                  match residual_handle ~pre ~post ~upper:rhs_h with
                  | Some h -> add v i h
                  | None -> () (* over the cap: stay coarse *)))
          | _ :: _ :: _ -> forward := (i, ls, rhs_h) :: !forward)
        (System.expand_unions lhs))
    constrs;
  (contribs, List.rev !forward)

let contributions contribs v =
  Option.value (Hashtbl.find_opt contribs v) ~default:[]

(* meet of [v]'s contributions, constraints in [exclude] not
   participating (discharge checks ask "what do the *others* know?") *)
let var_bound ?(exclude = fun _ -> false) contribs v =
  List.fold_left
    (fun acc (i, h) -> if exclude i then acc else Store.inter_lang acc h)
    (Store.top ())
    (List.rev (contributions contribs v))

(* The forward language of an alternative: its leaves' bounds joined
   by {!Residual.run}, or [None] when a leaf or the run outgrows the
   cap. *)
let eval_leaves ?exclude system contribs ls =
  let leaf = function
    | System.Const c -> System.const_handle system c
    | System.Var v -> var_bound ?exclude contribs v
    | System.Concat _ | System.Union _ -> assert false
  in
  let capped h = if handle_size h > state_cap then None else Some h in
  let rec handles = function
    | [] -> Some []
    | l :: rest ->
        Option.bind (capped (leaf l)) (fun h -> Option.map (List.cons h) (handles rest))
  in
  Option.bind (handles ls) (fun hs -> capped (Residual.run hs))

(* The whole pass, usable as the minimization oracle: [Error _] iff
   the constraint list is refuted, with the indices the blame seeds
   from. Either way it returns the contributions it collected (none
   when collection itself refuted) for the bounds report, discharge
   and slicing. Conceptually a worklist fixpoint over the dependency
   graph's vertices; with constants confined to right-hand sides and
   operand positions, information only flows leaf-to-root, so the meet
   phase followed by one forward sweep already is the fixpoint. *)
let bounds_refute system constrs =
  match collect system constrs with
  | exception Refuted (cause, blame) -> Error ((cause, blame), Hashtbl.create 0)
  | contribs, forward -> (
      match
        List.iter
          (fun v ->
            Budget.tick ();
            match contributions contribs v with
            | [] -> ()
            | cs ->
                if Store.is_empty (var_bound contribs v) then
                  raise (Refuted (Empty_var v, List.map fst cs)))
          (vars_of_constrs constrs);
        List.iter
          (fun (i, ls, rhs_h) ->
            Budget.tick ();
            match eval_leaves system contribs ls with
            | Some h when Store.disjoint h rhs_h ->
                let blame =
                  i
                  :: List.concat_map
                       (fun v -> List.map fst (contributions contribs v))
                       (alt_vars ls)
                in
                raise
                  (Refuted
                     ( Bound_empty
                         (Fmt.str "%a" System.pp_expr (expr_of_leaves ls)),
                       List.sort_uniq compare blame ))
            | _ -> ())
          forward
      with
      | () -> Ok contribs
      | exception Refuted (cause, blame) -> Error ((cause, blame), contribs))

let refute_with_core system constrs (cause, blame) =
  let candidate = List.filteri (fun i _ -> List.mem i blame) constrs in
  let check cs = Result.is_error (bounds_refute system cs) in
  (* the blame set contains every contribution the refutation used, so
     the candidate refutes on its own and ddmin can shrink from it *)
  let core =
    if check candidate then minimize_core ~check candidate
    else (* defensive: blame tracking failed us; fall back to the lot *)
      minimize_core ~check constrs
  in
  { cause; core }

(* ------------------------------------------------------------------ *)
(* Pass 3 — discharge: drop constraints implied by what the others
   already enforce. Greedy and sequential: each check excludes the
   constraint itself plus everything dropped before it, so mutually
   redundant pairs cannot vanish together. *)

let discharge system contribs constrs =
  let removed = Hashtbl.create 8 in
  let kept =
    List.filteri
      (fun i c ->
        let exclude j = j = i || Hashtbl.mem removed j in
        let rhs_h = System.const_handle system c.System.rhs in
        let removable =
          List.for_all
            (fun alt ->
              Budget.tick ();
              let ls = System.leaves alt in
              if List.for_all is_const ls then
                (* decided satisfiable during collection *)
                true
              else
                match eval_leaves ~exclude system contribs ls with
                | Some h -> Store.subset h rhs_h
                | None -> false)
            (System.expand_unions c.System.lhs)
        in
        if removable then Hashtbl.replace removed i ();
        not removable)
      constrs
  in
  (kept, Hashtbl.length removed)

(* ------------------------------------------------------------------ *)
(* Pass 4 — cone-of-influence slicing. Connected components of the
   variable-sharing relation are independent conjuncts; a component
   holding no goal variable is proved satisfiable once (each variable
   set to the shortest word of its bound) and dropped, its witnesses
   re-joining the solver's assignments afterwards. A component whose
   witness check fails is conservatively kept. *)

let shortest_of_bound contribs v =
  Nfa.shortest_word (Store.nfa (var_bound contribs v))

let witness_ok system comp_constrs witness_of =
  List.for_all
    (fun { System.lhs; rhs } ->
      let rhs_h = System.const_handle system rhs in
      List.for_all
        (fun alt ->
          Budget.tick ();
          let h =
            Residual.run
              (List.map
                 (function
                   | System.Const c -> System.const_handle system c
                   | System.Var v -> Store.of_word (witness_of v)
                   | System.Concat _ | System.Union _ -> assert false)
                 (System.leaves alt))
          in
          Store.subset h rhs_h)
        (System.expand_unions lhs))
    comp_constrs

let slice ~goals system contribs constrs =
  let vars = vars_of_constrs constrs in
  let is_var = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace is_var v ()) vars;
  let goals = List.filter (Hashtbl.mem is_var) goals in
  if goals = [] then (constrs, [], [])
  else begin
    (* union-find over variables, joined by co-occurrence *)
    let parent = Hashtbl.create 16 in
    let rec find v =
      match Hashtbl.find_opt parent v with
      | None -> v
      | Some p ->
          let root = find p in
          Hashtbl.replace parent v root;
          root
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then Hashtbl.replace parent ra rb
    in
    (* each constraint with its variables' component, if it has any *)
    let rooted =
      List.map
        (fun c ->
          match System.expr_variables c.System.lhs with
          | [] -> (c, None)
          | first :: rest ->
              List.iter (union first) rest;
              (c, Some first))
        constrs
    in
    let rooted = List.map (fun (c, v) -> (c, Option.map find v)) rooted in
    let goal_roots = Hashtbl.create 8 in
    List.iter (fun g -> Hashtbl.replace goal_roots (find g) ()) goals;
    (* the variables and constraints of each component, in order *)
    let members table root x =
      Hashtbl.replace table root
        (x :: Option.value (Hashtbl.find_opt table root) ~default:[])
    in
    let comp_vars = Hashtbl.create 16 and comp_constrs = Hashtbl.create 16 in
    List.iter (fun v -> members comp_vars (find v) v) vars;
    List.iter
      (function c, Some root -> members comp_constrs root c | _, None -> ())
      rooted;
    let component table root =
      List.rev (Option.value (Hashtbl.find_opt table root) ~default:[])
    in
    let out_roots =
      List.sort String.compare
        (Hashtbl.fold
           (fun root _ acc ->
             if Hashtbl.mem goal_roots root then acc else root :: acc)
           comp_vars [])
    in
    let dropped = Hashtbl.create 8 in
    List.iter
      (fun root ->
        let witnesses =
          List.map
            (fun v ->
              match shortest_of_bound contribs v with
              | Some w -> (v, w)
              | None -> assert false (* empty bounds refuted earlier *))
            (component comp_vars root)
        in
        let witness_of v = List.assoc v witnesses in
        if witness_ok system (component comp_constrs root) witness_of then
          Hashtbl.replace dropped root witnesses)
      out_roots;
    (* constant-only constraints are kept (discharge already ran) *)
    let kept =
      List.filter_map
        (function _, Some r when Hashtbl.mem dropped r -> None | c, _ -> Some c)
        rooted
    in
    let witnesses =
      List.sort compare
        (Hashtbl.fold (fun _ ws acc -> ws @ acc) dropped [])
    in
    let sliced_vars = List.map fst witnesses in
    (kept, witnesses, sliced_vars)
  end

(* ------------------------------------------------------------------ *)

let run ?(goals = []) system =
  match timed "normalize" (fun () -> normalize system) with
  | { norm_constrs; extra_consts; norm_folded; norm_deduped } -> (
      Telemetry.Metrics.Counter.incr c_folded norm_folded;
      Telemetry.Metrics.Counter.incr c_deduped norm_deduped;
      let norm_sys =
        System.with_goals
          (System.make_exn
             ~consts:(System.constants system @ extra_consts)
             ~constraints:norm_constrs)
          (System.goals system)
      in
      let goals =
        let seen = Hashtbl.create 4 in
        List.filter
          (fun g ->
            if Hashtbl.mem seen g then false
            else begin
              Hashtbl.replace seen g ();
              true
            end)
          (goals @ System.goals system)
      in
      let stats ?(discharged = 0) ?(sliced_vars = []) ?(sliced_constraints = 0)
          () =
        {
          folded = norm_folded;
          deduped = norm_deduped;
          discharged;
          sliced_vars;
          sliced_constraints;
        }
      in
      (* only [dprle analyze] reads the report: a solve would pay one
         meet and one shortest word per variable for nothing *)
      let bounds_report contribs =
        lazy
          (List.map
             (fun v ->
               ( v,
                 {
                   contributions = List.length (contributions contribs v);
                   witness = shortest_of_bound contribs v;
                 } ))
             (vars_of_constrs norm_constrs))
      in
      (* the unsat core is shrunk by re-running this pass *)
      match
        timed "bounds" (fun () ->
            Result.map_error
              (fun (refutation, contribs) ->
                (refute_with_core norm_sys norm_constrs refutation, contribs))
              (bounds_refute norm_sys norm_constrs))
      with
      | Error (refute, contribs) ->
          Telemetry.Metrics.Counter.incr c_refuted 1;
          {
            system = norm_sys;
            refute = Some refute;
            witnesses = [];
            bounds = bounds_report contribs;
            stats = stats ();
          }
      | Ok contribs ->
          let kept, discharged =
            timed "discharge" (fun () -> discharge norm_sys contribs norm_constrs)
          in
          Telemetry.Metrics.Counter.incr c_discharged discharged;
          let kept, witnesses, sliced_vars =
            timed "slice" (fun () -> slice ~goals norm_sys contribs kept)
          in
          let sliced_constraints =
            List.length norm_constrs - discharged - List.length kept
          in
          Telemetry.Metrics.Counter.incr c_sliced_vars
            (List.length sliced_vars);
          Telemetry.Metrics.Counter.incr c_sliced_constraints
            sliced_constraints;
          {
            system = System.with_constraints norm_sys kept;
            refute = None;
            witnesses;
            bounds = bounds_report contribs;
            stats =
              stats ~discharged ~sliced_vars ~sliced_constraints ();
          })
