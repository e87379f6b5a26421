module Nfa = Automata.Nfa
module Ops = Automata.Ops
module Store = Automata.Store
module Budget = Automata.Budget

let log = Logs.Src.create "dprle.solver" ~doc:"RMA constraint solver"

module Log = (val Logs.src_log log)
module Span = Telemetry.Span

(* Solver-level metrics, alongside the construction-level counters of
   {!Automata.Ops} in the default registry. *)
let c_solves = Telemetry.Metrics.Counter.make "solver.solves"

(* gci's per-group cache of compacted slices: a miss builds a slice's
   minimal DFA, a hit reuses it for another ε-cut combination *)
let c_slices = Telemetry.Metrics.Counter.make "solver.gci.slices"

let h_group_combinations =
  Telemetry.Metrics.Histogram.make "solver.group_combinations"

(* One timer series per solve phase, nested like the spans, so
   `dprle profile` can apportion solver self-time without tracing. *)
let t_phase = Telemetry.Metrics.Timer.make "solver.phase"
let timed name f = Telemetry.Metrics.Timer.time t_phase ~labels:[ ("phase", name) ] f

(* Structured unsatisfiability. Every constructor renders to exactly
   the diagnostic string the pre-redesign [Unsat of string] carried,
   so CLI output (and the cram tests pinning it) is unchanged. *)
type unsat_reason =
  | Const_expr_violation
  | No_cut of int
  | All_combinations_empty
  | Empty_variable of string
  | Bound_empty of string

let pp_unsat_reason ppf = function
  | Const_expr_violation ->
      Fmt.string ppf "constant expression violates its subset constraint"
  | No_cut tid ->
      Fmt.pf ppf "concatenation %d admits no ε-cut: its language is empty" tid
  | All_combinations_empty ->
      Fmt.string ppf
        "every ε-cut combination of a CI-group forces an empty language"
  | Empty_variable v ->
      Fmt.pf ppf "variable %s is constrained to the empty language" v
  | Bound_empty alt ->
      Fmt.pf ppf
        "bounds propagation forces concatenation %s to the empty language" alt

let unsat_message reason = Fmt.str "%a" pp_unsat_reason reason

type refutation = { reason : unsat_reason; core : System.constr list }

type outcome = Sat of Assignment.t list | Unsat of refutation

module Config = struct
  type t = {
    max_solutions : int;
    combination_limit : int;
    budget : Budget.t;
    analyze : bool;
    goals : string list;
  }

  let default =
    {
      max_solutions = 256;
      combination_limit = 4096;
      budget = Budget.unlimited;
      analyze = true;
      goals = [];
    }

  let make ?(max_solutions = default.max_solutions)
      ?(combination_limit = default.combination_limit)
      ?(budget = default.budget) ?(analyze = default.analyze)
      ?(goals = default.goals) () =
    { max_solutions; combination_limit; budget; analyze; goals }
end

module Error = struct
  type t = Budget_exceeded of Budget.stop

  let pp ppf = function
    | Budget_exceeded stop -> Fmt.pf ppf "budget exceeded: %a" Budget.pp_stop stop

  let to_string e = Fmt.str "%a" pp e
end

module NMap = Map.Make (struct
  type t = Depgraph.node

  let compare = Depgraph.node_compare
end)

module NSet = Set.Make (struct
  type t = Depgraph.node

  let compare = Depgraph.node_compare
end)

(* ------------------------------------------------------------------ *)
(* Slices: every group node's solution is a sub-machine of a root
   machine, delimited by endpoints that are either fixed (the root's
   start/final) or symbolic references to the ε-cut chosen for a
   concatenation. This is the paper's shared-solution-representation
   invariant: one machine per constraint tree, nodes as views. *)

type endpoint =
  | Root_start
  | Root_final
  | Cut_source of int  (** source state of triple [i]'s chosen ε-cut *)
  | Cut_target of int  (** target state of triple [i]'s chosen ε-cut *)

type slice = { entry : endpoint; exit_ : endpoint }

(* A root machine under construction. [cuts] maps each concatenation
   (by index in [Depgraph.concats]) whose bridge lives in this machine
   to its candidate ε-cut state pairs. [slices] lists the group nodes
   whose solutions are views of this machine. *)
type record = {
  nfa : Nfa.t;
  cuts : (int * (Nfa.state * Nfa.state) list) list;
  slices : (Depgraph.node * slice) list;
}

exception Unsatisfiable of unsat_reason

let unsat reason = raise (Unsatisfiable reason)

(* ------------------------------------------------------------------ *)
(* Constant-operand preprocessing.

   ε-cut slicing assigns each *variable* operand exactly the language
   the chosen cut witnesses, so any combination of values drawn from a
   solution satisfies the constraint. A *constant* operand is not
   assigned: the constraint quantifies over its whole language, while
   a cut only witnesses the words reaching that one cut state. For a
   singleton constant (a string literal — the paper's running example
   and every system the symbolic executor emits) the two coincide; for
   a multi-word constant they do not, and raw slicing would be
   unsound (e.g. [a* ∘ v ⊆ (ab)*] must force [v = ∅]).

   Exact repair for the common shapes: a maximal leading or trailing
   run of constant leaves containing a multi-word constant is folded
   into the right-hand side with the universal residual
   [{w | pre·w·post ⊆ c}] ({!Residual.bound}) — an equivalence,
   not an approximation. Constant-only alternatives are decided by
   inclusion outright. The remaining case — a multi-word constant
   {e between} two variables — keeps its slicing but flags the group
   so every ε-cut combination is verified against the constraints
   before being admitted (sound, possibly incomplete; noted in
   DESIGN.md). *)

(* A literal's handle says it is one: the store records the word it
   was built from, so every system the symbolic executor emits answers
   in O(1). Any other constant is decided once, memoized on the handle
   id: the answer survives across disjuncts, constraint files, and
   repeated solves of shared constants. *)
let singleton_memo : bool Store.Memo.t = Store.Memo.create ~op:"is_singleton"

let is_singleton_handle h =
  Option.is_some (Store.word h)
  || Store.Memo.find_or_compute singleton_memo ~key:[ Store.id h ] (fun () ->
         match Nfa.shortest_word (Store.nfa h) with
         | None -> false
         (* [w] is drawn from the language, so {w} ⊆ L always holds; one
            inclusion check decides equality. *)
         | Some w -> Store.subset h (Store.of_word w))

let preprocess system =
  let const_handle = System.const_handle system in
  let is_singleton name = is_singleton_handle (const_handle name) in
  let extra = ref [] in
  let handles run =
    List.map (function System.Const c -> const_handle c | _ -> assert false) run
  in
  let needs_fold run =
    run <> []
    && List.exists
         (function System.Const c -> not (is_singleton c) | _ -> false)
         run
  in
  let rebuild = function
    | [] -> None
    | first :: rest ->
        Some (List.fold_left (fun acc l -> System.Concat (acc, l)) first rest)
  in
  let transform { System.lhs; rhs } =
    List.filter_map
      (fun alternative ->
        let ls = System.leaves alternative in
        let is_const = function System.Const _ -> true | _ -> false in
        let rec split_run acc = function
          | leaf :: rest when is_const leaf -> split_run (leaf :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let pre_run, rest = split_run [] ls in
        let post_run_rev, mid_rev = split_run [] (List.rev rest) in
        let post_run = List.rev post_run_rev in
        let mid = List.rev mid_rev in
        if mid = [] then begin
          (* constant-only alternative: decide inclusion now *)
          if not (Store.subset (Residual.run (handles pre_run)) (const_handle rhs))
          then unsat Const_expr_violation;
          None
        end
        else begin
          let fold_pre = needs_fold pre_run and fold_post = needs_fold post_run in
          if not (fold_pre || fold_post) then
            Option.map (fun lhs -> { System.lhs; rhs }) (rebuild ls)
          else begin
            let rhs' = Printf.sprintf "#res%d" (List.length !extra) in
            extra :=
              ( rhs',
                Residual.bound
                  ~pre:(if fold_pre then handles pre_run else [])
                  ~post:(if fold_post then handles post_run else [])
                  ~upper:(const_handle rhs) )
              :: !extra;
            let kept =
              (if fold_pre then [] else pre_run)
              @ mid
              @ if fold_post then [] else post_run
            in
            Option.map (fun lhs -> { System.lhs; rhs = rhs' }) (rebuild kept)
          end
        end)
      (System.expand_unions lhs)
  in
  let constraints = List.concat_map transform (System.constraints system) in
  System.make_exn
    ~consts:(System.constants system @ List.rev !extra)
    ~constraints

(* After preprocessing, the only inexact spots are concatenations with
   a non-singleton constant operand (necessarily between variables). *)
let group_needs_verification (g : Depgraph.t) members =
  let member_set = NSet.of_list members in
  List.exists
    (fun { Depgraph.left; right; result } ->
      NSet.mem result member_set
      && List.exists
           (function
             | Depgraph.Const c ->
                 not (is_singleton_handle (System.const_handle g.system c))
             | _ -> false)
           [ left; right ])
    g.concats

(* ------------------------------------------------------------------ *)
(* Base languages: the paper's initial node-to-NFA mapping (Σ* for
   variables, ⟦c⟧ for constants) with every inbound subset edge
   applied up front — invariant 1 of §3.4.3, subset constraints
   before concatenations. The graph is [preprocess]'s, which has
   already decided every constant-only alternative, so no constant
   has an inbound edge. *)

(* The base map carries store handles, not raw machines: the inbound
   intersections below are the first places repeated constants pay
   off, and downstream consumers (group solving, the singleton-group
   fast path) reuse the same handles for their own cached queries. *)
let base_languages (g : Depgraph.t) =
  let const_handle c = System.const_handle g.system c in
  (* each node's inbound ⊆-edges, in edge order, indexed in one pass *)
  let inbound_edges =
    List.fold_left
      (fun acc (c, n) ->
        let h =
          match c with
          | Depgraph.Const name -> const_handle name
          | _ -> assert false (* RHS of ⊆ is a constant by the grammar *)
        in
        NMap.update n (fun hs -> Some (h :: Option.value hs ~default:[])) acc)
      NMap.empty g.subsets
  in
  let inbound n =
    Option.fold ~none:[] ~some:List.rev (NMap.find_opt n inbound_edges)
  in
  List.fold_left
    (fun acc n ->
      let h =
        match n with
        | Depgraph.Const name -> const_handle name
        | Depgraph.Var _ | Depgraph.Tmp _ -> (
            match inbound n with
            | [] -> Store.top ()
            | first :: rest -> List.fold_left Store.inter_lang first rest)
      in
      NMap.add n h acc)
    NMap.empty g.nodes

(* ------------------------------------------------------------------ *)
(* Machine construction: process the concatenations in creation order
   (operands precede results), building for each the machine
   (left ∘ right) ∩ base[result] and re-rooting any structure already
   accumulated in tmp operands into the new machine. *)

(* Index the product states by their concatenation-machine component:
   one concat state maps to the product states (and partner base
   states) it survived in, newest first. [n] is the state count of the
   concatenation machine. *)
let index_product ~n (prod : Ops.product_result) =
  let table = Array.make n [] in
  for q = 0 to Nfa.num_states prod.machine - 1 do
    let p, d = prod.pair_of q in
    table.(p) <- (q, d) :: table.(p)
  done;
  fun p -> table.(p)

(* Lift the ε-cut pairs of an embedded machine into the product: each
   old cut (qa, qb) survives as (qa·d, qb·d) for every base state d
   under which qa is still reachable. This is where disjunctive
   candidates multiply — the |M3| factor of the paper's §3.5 bound. *)
let lift_cuts ~embed ~(prod : Ops.product_result) ~index pairs =
  List.concat_map
    (fun (qa, qb) ->
      List.filter_map
        (fun (q, d) ->
          match prod.state_of_pair (embed qb, d) with
          | Some qb' when Nfa.has_eps_edge prod.machine q qb' -> Some (q, qb')
          | _ -> None)
        (index (embed qa)))
    pairs

(* Re-root a record that becomes the [side] operand of a new
   concatenation: the closed end stays a root endpoint, the open end
   (the one the bridge extends) becomes a symbolic cut reference. *)
let relocate_slices ~triple_id ~side slices =
  let map_endpoint ep =
    match (ep, side) with
    | Root_final, `Left -> Cut_source triple_id
    | Root_start, `Right -> Cut_target triple_id
    | other, _ -> other
  in
  List.map
    (fun (n, { entry; exit_ }) ->
      (n, { entry = map_endpoint entry; exit_ = map_endpoint exit_ }))
    slices

let build_machines (g : Depgraph.t) base =
  let records : (int, record) Hashtbl.t = Hashtbl.create 16 in
  (* tmp node id → record index *)
  let record_of_tmp : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let next_record = ref 0 in
  let consumed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let operand n =
    match n with
    | Depgraph.Tmp id ->
        let rid = Hashtbl.find record_of_tmp id in
        Hashtbl.replace consumed rid ();
        let r = Hashtbl.find records rid in
        (r.nfa, Some r)
    (* raw machines from here on: the concat/intersect provenance
       below slices the result by state identity, which an interned
       representative would not preserve *)
    | _ -> (Store.nfa (NMap.find n base), None)
  in
  List.iteri
    (fun triple_id { Depgraph.left; right; result } ->
      let left_nfa, left_rec = operand left in
      let right_nfa, right_rec = operand right in
      let cat = Ops.concat left_nfa right_nfa in
      let prod = Ops.intersect cat.machine (Store.nfa (NMap.find result base)) in
      let index = index_product ~n:(Nfa.num_states cat.machine) prod in
      (* this triple's own ε-cut candidates: images of the bridge *)
      let bridge_src, bridge_dst = cat.bridge in
      let own_cuts =
        lift_cuts ~embed:Fun.id ~prod ~index [ (bridge_src, bridge_dst) ]
      in
      let lifted_cuts side_rec embed =
        match side_rec with
        | None -> []
        | Some r ->
            List.map
              (fun (tid, pairs) -> (tid, lift_cuts ~embed ~prod ~index pairs))
              r.cuts
      in
      let lifted_slices side_rec side =
        match side_rec with
        | None -> []
        | Some r -> relocate_slices ~triple_id ~side r.slices
      in
      (* fresh slices for plain-variable operands; constants carry no
         solution and tmp operands already have their slice *)
      let operand_slice n side =
        match n with
        | Depgraph.Var _ ->
            let slice =
              match side with
              | `Left -> { entry = Root_start; exit_ = Cut_source triple_id }
              | `Right -> { entry = Cut_target triple_id; exit_ = Root_final }
            in
            [ (n, slice) ]
        | _ -> []
      in
      let record =
        {
          nfa = prod.machine;
          cuts =
            ((triple_id, own_cuts) :: lifted_cuts left_rec cat.left_embed)
            @ lifted_cuts right_rec cat.right_embed;
          slices =
            (result, { entry = Root_start; exit_ = Root_final })
            :: operand_slice left `Left
            @ operand_slice right `Right
            @ lifted_slices left_rec `Left
            @ lifted_slices right_rec `Right;
        }
      in
      let rid = !next_record in
      incr next_record;
      Hashtbl.add records rid record;
      (match result with
      | Depgraph.Tmp id -> Hashtbl.add record_of_tmp id rid
      | _ -> assert false);
      ())
    g.concats;
  (* roots: records never consumed as an operand *)
  Hashtbl.fold
    (fun rid r acc -> if Hashtbl.mem consumed rid then acc else r :: acc)
    records []

(* ------------------------------------------------------------------ *)
(* Solving one CI-group: enumerate combinations of one ε-cut per
   concatenation; each combination induces, for every node, the
   intersection of its slices; reject combinations that force an
   empty language; drop pointwise-subsumed assignments (Maximal). *)

let resolve_endpoint (nfa : Nfa.t) choice = function
  | Root_start -> Nfa.start nfa
  | Root_final -> Nfa.final nfa
  | Cut_source tid -> fst (List.assoc tid choice)
  | Cut_target tid -> snd (List.assoc tid choice)

let endpoints (r : record) choice { entry; exit_ } =
  (resolve_endpoint r.nfa choice entry, resolve_endpoint r.nfa choice exit_)

let slice_language (r : record) (entry, exit_) =
  Nfa.induce_from_final (Nfa.induce_from_start r.nfa entry) exit_

(* Lazy cartesian product of the per-concatenation cut candidates; the
   paper's §3.5 notes that the first solution can be produced without
   enumerating the rest, so combinations are only materialized as
   consumed. *)
let rec cartesian = function
  | [] -> Seq.return []
  | (tid, candidates) :: rest ->
      let tails = cartesian rest in
      Seq.concat_map
        (fun cut -> Seq.map (fun tail -> (tid, cut) :: tail) tails)
        (List.to_seq candidates)

let solve_group ~combination_limit ~raw_cap ~verify (roots : record list) base
    (members : NSet.t) =
  Span.with_span ~name:"gci" ~attrs:[ ("group_size", `Int (NSet.cardinal members)) ]
  @@ fun () ->
  timed "gci" @@ fun () ->
  (* all concatenations of this group, with their candidates *)
  let cut_menu = List.concat_map (fun r -> r.cuts) roots in
  Span.add_attr "concats" (`Int (List.length cut_menu));
  Span.add_attr "cut_census"
    (`String
       (String.concat ","
          (List.map
             (fun (tid, cs) -> Printf.sprintf "t%d:%d" tid (List.length cs))
             cut_menu)));
  List.iter
    (fun (tid, candidates) ->
      if candidates = [] then unsat (No_cut tid))
    cut_menu;
  let total =
    List.fold_left (fun acc (_, c) -> acc * List.length c) 1 cut_menu
  in
  Span.add_attr "combinations" (`Int total);
  Telemetry.Metrics.Histogram.observe h_group_combinations (float_of_int total);
  if total > combination_limit then
    Log.warn (fun m ->
        m
          "exploring %d of %d ε-cut combinations (the exponential worst case \
           of §3.5); the solution list may be incomplete"
          combination_limit total);
  (* Each member's slices, in root order; a root is identified by its
     position in [roots]. *)
  let member_slices =
    List.filter_map
      (fun n ->
        match n with
        | Depgraph.Const _ -> None
        | Depgraph.Var _ | Depgraph.Tmp _ ->
            let slices =
              List.concat
                (List.mapi
                   (fun i r ->
                     List.filter_map
                       (fun (n', s) ->
                         if Depgraph.node_equal n n' then Some (i, r, s) else None)
                       r.slices)
                   roots)
            in
            Some (n, slices))
      (NSet.elements members)
  in
  (* A node met by several slices is their intersection. Each slice
     enters it as its minimal DFA, built once per group: slices of
     distinct combinations often share their resolved endpoints, and a
     raw slice of a large root is over the store's key ceiling, so
     neither its determinization nor any product of it would be reused.
     The compacted handles are small and keyed, so the intersections
     and emptiness checks of later combinations answer from the store's
     memos, and so do the subset checks that prune, maximize and
     validate the disjuncts they are bound in: a variable's handle is
     always a compacted slice or an intersection of them.

     A Tmp binds nothing, so of its single slice only emptiness is
     asked. The slice is a view of its root (the O(1) re-roots of the
     paper's Fig. 3), so it is non-empty iff its exit is reachable from
     its entry in that root: one reachability sweep per (root, entry),
     shared by every combination that resolves the entry alike, and no
     slice is built, trimmed or keyed. *)
  let compacted : (int * (Nfa.state * Nfa.state), Store.handle) Hashtbl.t =
    Hashtbl.create 16
  in
  let compacted_slice choice (i, r, s) =
    let ends = endpoints r choice s in
    match Hashtbl.find_opt compacted (i, ends) with
    | Some h ->
        Telemetry.Metrics.Counter.incr c_slices ~labels:[ ("outcome", "hit") ] 1;
        h
    | None ->
        Telemetry.Metrics.Counter.incr c_slices ~labels:[ ("outcome", "miss") ] 1;
        (* trimmed: a slice keeps its root's dead states, and they
           multiply the subsets its determinization builds *)
        let m, _ = Nfa.trim (slice_language r ends) in
        let h = Store.compacted (Store.intern m) in
        Hashtbl.add compacted (i, ends) h;
        h
  in
  let reachable : (int * Nfa.state, Nfa.Flags.set) Hashtbl.t = Hashtbl.create 16 in
  let slice_inhabited choice (i, r, s) =
    let entry, exit_ = endpoints r choice s in
    let flags =
      match Hashtbl.find_opt reachable (i, entry) with
      | Some f -> f
      | None ->
          let f = Nfa.reachable_flags r.nfa entry in
          Hashtbl.add reachable (i, entry) f;
          f
    in
    Nfa.Flags.mem flags exit_
  in
  let is_var = function Depgraph.Var _ -> true | _ -> false in
  let solutions = ref [] in
  let found = ref 0 in
  Seq.iter
    (fun choice ->
      (* a root's cuts are disjoint from other roots'; each root only
         needs its own sub-choice, which [List.assoc] finds in the
         full choice list *)
      let exception Dead in
      match
        List.fold_left
          (fun acc (n, slices) ->
            let bind h =
              if Store.is_empty h then raise Dead
              else if is_var n then (n, h) :: acc
              else acc
            in
            match slices with
            | [] -> bind (NMap.find n base)
            | [ slice ] when is_var n -> bind (compacted_slice choice slice)
            | [ slice ] -> if slice_inhabited choice slice then acc else raise Dead
            | first :: rest ->
                bind
                  (List.fold_left
                     (fun h slice -> Store.inter_lang h (compacted_slice choice slice))
                     (compacted_slice choice first) rest))
          [] member_slices
      with
      | bindings ->
          let assignment =
            Assignment.of_list
              (List.map
                 (fun (n, h) ->
                   match n with
                   | Depgraph.Var v -> (v, h)
                   | _ -> assert false)
                 bindings)
          in
          (* groups with a multi-word constant operand: slicing is not
             exact there, so admit only verified combinations *)
          if match verify with None -> true | Some check -> check assignment
          then begin
            incr found;
            solutions := assignment :: !solutions
          end
      | exception Dead -> ())
    (Seq.take combination_limit
       (Seq.take_while (fun _ -> !found < raw_cap) (cartesian cut_menu)));
  Span.add_attr "slices_distinct" (`Int (Hashtbl.length compacted));
  (* Early pruning: drop assignments pointwise contained in another
     (the final Maximal filter runs after maximalization in [solve]). *)
  let unsubsumed = Assignment.prune_subsumed (List.rev !solutions) in
  Span.add_attr "solutions" (`Int (List.length unsubsumed));
  (* nothing survived the combinations explored; when the cap left
     some unexplored, that says nothing about the rest *)
  if unsubsumed = [] then
    if total > combination_limit then raise (Budget.Exceeded Budget.Combination_limit)
    else unsat All_combinations_empty;
  unsubsumed

(* ------------------------------------------------------------------ *)
(* Closed form for constant-prefixed variables.

   A variable whose every union-free alternative reads [c1·…·ck·v]
   (k ≥ 0: constants only before it, no other variable, nothing after
   it) meets no other variable in any constraint, so the languages
   that satisfy its constraints are closed under union and the system
   has one maximal value for it: the meet, in constraint order, of the
   universal residuals [{w | c1⋯ck·w ⊆ C}], or [C] itself when k = 0
   ({!Residual.closed_form}, over the same occurrence index maximize
   reads). That is the value gci's slices grow to in maximize, computed
   without a concatenation machine. A constant suffix would make the
   residual a two-sided one; such variables stay on the solver path. *)

let c_closed_form = Telemetry.Metrics.Counter.make "solver.closed_form.vars"

(* The constant-prefixed variables of [system] bound in closed form
   ({!Residual.closed_form}), and the system without their
   alternatives; [None] when no variable qualifies or one binding is
   empty (the solver path then names the reason). *)
let closed_form system =
  let qualified = Residual.closed_form (Residual.index system) in
  if qualified = [] then None
  else
    Span.with_span ~name:"closed-form"
      ~attrs:[ ("vars", `Int (List.length qualified)) ]
    @@ fun () ->
    timed "closed-form" @@ fun () ->
    let exception Empty in
    match
      List.map
        (fun (v, h) ->
          let h = Lazy.force h in
          if Store.is_empty h then raise Empty;
          (v, h))
        qualified
    with
    | exception Empty -> None
    | bindings ->
        let bound = Hashtbl.create 16 in
        List.iter (fun (v, _) -> Hashtbl.replace bound v ()) bindings;
        let solved alternative =
          List.exists
            (function System.Var v -> Hashtbl.mem bound v | _ -> false)
            (System.leaves alternative)
        in
        let rest =
          List.filter_map
            (fun ({ System.lhs; rhs } as c) ->
              let alternatives = System.expand_unions lhs in
              match List.filter (fun a -> not (solved a)) alternatives with
              | [] -> None
              | kept when List.length kept = List.length alternatives -> Some c
              | first :: others ->
                  Some
                    {
                      System.lhs =
                        List.fold_left (fun acc a -> System.Union (acc, a)) first others;
                      rhs;
                    })
            (System.constraints system)
        in
        Some (Assignment.of_list bindings, System.with_constraints system rest)

(* ------------------------------------------------------------------ *)

(* The graph the solver proper works on: the dependency graph of the
   preprocessed system. Raises [Unsatisfiable] on a failed
   constant-only alternative. *)
let preprocessed_graph system =
  Depgraph.of_system
    (Span.with_span ~name:"preprocess" (fun () ->
         timed "preprocess" (fun () -> preprocess system)))

let solve_proper ~max_solutions ~combination_limit system =
  try
    let g = preprocessed_graph system in
    let raw_cap = max 64 (max_solutions * 4) in
    let base =
      Span.with_span ~name:"reduce" (fun () ->
          timed "reduce" (fun () -> base_languages g))
    in
    let roots =
      Span.with_span ~name:"build-machines" (fun () ->
          timed "build-machines" (fun () -> build_machines g base))
    in
    let groups = Depgraph.ci_groups g in
    let group_solutions =
      List.filter_map
        (fun members ->
          match members with
          | [ Depgraph.Const _ ] -> None (* no inbound edge: nothing to solve *)
          | [ (Depgraph.Var v as n) ] ->
              let h = NMap.find n base in
              if Store.is_empty h then unsat (Empty_variable v)
              else Some [ Assignment.of_list [ (v, h) ] ]
          | members ->
              let member_set = NSet.of_list members in
              let group_roots =
                List.filter
                  (fun r ->
                    List.exists (fun (n, _) -> NSet.mem n member_set) r.slices)
                  roots
              in
              let verify =
                if not (group_needs_verification g members) then None
                else begin
                  let group_vars =
                    List.filter_map
                      (function Depgraph.Var v -> Some v | _ -> None)
                      members
                  in
                  let relevant =
                    List.filter
                      (fun { System.lhs; _ } ->
                        List.exists
                          (fun v -> List.mem v group_vars)
                          (System.expr_variables lhs))
                      (System.constraints g.system)
                  in
                  Some
                    (fun a ->
                      List.for_all (Validate.constraint_holds g.system a) relevant)
                end
              in
              Some
                (solve_group ~combination_limit ~raw_cap ~verify group_roots base
                   member_set))
        groups
    in
    (* conjunction of independent groups: cartesian combination *)
    let combined =
      Span.with_span ~name:"combine"
        ~attrs:[ ("groups", `Int (List.length group_solutions)) ]
      @@ fun () ->
      timed "combine" @@ fun () ->
      List.fold_left
        (fun acc sols ->
          let merged =
            List.concat_map
              (fun a ->
                List.map (fun b -> Assignment.union a b) sols)
              acc
          in
          (* keep the cap loose until the end so disjunct order stays
             deterministic *)
          if List.length merged > max_solutions * 4 then
            List.filteri (fun i _ -> i < max_solutions * 4) merged
          else merged)
        [ Assignment.of_list [] ]
        group_solutions
    in
    (* RMA's Maximal condition: grow every variable of every disjunct
       as far as the other variables allow (the paper's worked
       examples merge ε-cut slices exactly this way, e.g.
       [v1 ↦ x(yy|yyyy)] in §3.1.1), then drop disjuncts the growth
       made redundant. *)
    let maximized =
      Span.with_span ~name:"maximize"
        ~attrs:[ ("disjuncts_in", `Int (List.length combined)) ]
      @@ fun () ->
      timed "maximize" @@ fun () ->
      let index = Residual.index g.system in
      Span.add_attr "vars" (`Int (Residual.vars index));
      Span.add_attr "occurrences" (`Int (Residual.occurrences index));
      Assignment.prune_subsumed (List.map (Residual.maximize index) combined)
    in
    let capped = List.filteri (fun i _ -> i < max_solutions) maximized in
    Log.debug (fun m ->
        m "solved: %d groups, %d disjunctive solutions" (List.length group_solutions)
          (List.length capped));
    Sat capped
  with Unsatisfiable reason -> Unsat { reason; core = [] }

(* ------------------------------------------------------------------ *)
(* The public entry point. [run] is the one solve API: config record
   in, [result] out, with budget exhaustion surfaced as a structured
   error rather than an exception. *)

let reason_of_cause = function
  | Analyze.Empty_var v -> Empty_variable v
  | Analyze.Bound_empty alt -> Bound_empty alt
  | Analyze.Const_expr _ -> Const_expr_violation

(* The analyzer pre-pass, the closed form for constant-prefixed
   variables, then the solver proper on whatever survives. An analyzer
   refutation carries its minimal core; a solver-proper refutation
   carries an empty core (minimizing one would mean re-solving subsets
   — the [dprle analyze] report is the tool for blame beyond what the
   static passes can see). Closed-form bindings join every disjunct of
   the rest, as one group's do in [combine]; sliced-away variables
   re-join every solution as their singleton witnesses, and variables
   whose every constraint was discharged as Σ*, so assignments stay
   total over the original system. [--no-analyze] skips both: it
   is the paper's pipeline, the ablation arm and the oracle. *)
let solve_system (cfg : Config.t) system =
  let solve system =
    solve_proper ~max_solutions:cfg.max_solutions
      ~combination_limit:cfg.combination_limit system
  in
  let solving f =
    Span.with_span ~name:"solve" @@ fun () ->
    timed "solve" @@ fun () ->
    Telemetry.Metrics.Counter.incr c_solves 1;
    f ()
  in
  if not cfg.analyze then solving (fun () -> solve system)
  else
    let a =
      Span.with_span ~name:"analyze" (fun () ->
          timed "analyze" (fun () -> Analyze.run ~goals:cfg.goals system))
    in
    match a.Analyze.refute with
    | Some { Analyze.cause; core } ->
        Unsat { reason = reason_of_cause cause; core }
    | None -> (
        let outcome =
          solving @@ fun () ->
          match closed_form a.Analyze.system with
          | None -> solve a.Analyze.system
          | Some (bound, rest) -> (
              match
                if System.size rest = 0 then Sat [ Assignment.of_list [] ]
                else solve rest
              with
              | Sat sols ->
                  Telemetry.Metrics.Counter.incr c_closed_form
                    (List.length (Assignment.bindings bound));
                  Sat (List.map (fun s -> Assignment.union s bound) sols)
              (* the reason is the whole system's: a concatenation's
                 index, and which group fails first, count the solved
                 variables too *)
              | Unsat _ -> solve a.Analyze.system)
        in
        let sliced = List.map (fun (v, w) -> (v, Store.of_word w)) a.Analyze.witnesses in
        (* a variable whose every constraint was discharged is
           unconstrained: the last one dropped was implied by Σ* *)
        let discharged () =
          let present = Hashtbl.create 16 in
          List.iter
            (fun v -> Hashtbl.replace present v ())
            (System.variables a.Analyze.system @ List.map fst sliced);
          List.filter_map
            (fun v -> if Hashtbl.mem present v then None else Some (v, Store.top ()))
            (System.variables system)
        in
        match
          (outcome, if a.Analyze.stats.discharged > 0 then sliced @ discharged () else sliced)
        with
        | (Unsat _ as u), _ -> u
        | Sat sols, [] -> Sat sols
        | Sat sols, extra ->
            let extra = Assignment.of_list extra in
            Sat (List.map (fun s -> Assignment.union s extra) sols))

let run (cfg : Config.t) system =
  (* pre-solve lint: an empty bounding constant is a likely authoring
     bug the verdict alone would not name, so say so on the log before
     any machine is built *)
  List.iter
    (fun f -> Log.warn (fun m -> m "lint: %a" Static.pp_finding f))
    (Static.quick system);
  try
    Ok (Budget.with_budget cfg.budget (fun () -> solve_system cfg system))
  with Budget.Exceeded stop -> Error (Error.Budget_exceeded stop)

let cut_census (cfg : Config.t) system =
  let analyzed =
    if not cfg.analyze then Some system
    else
      let a = Analyze.run ~goals:cfg.goals system in
      if Option.is_some a.Analyze.refute then None
      else
        match closed_form a.Analyze.system with
        | Some (_, rest) -> Some rest
        | None -> Some a.Analyze.system
  in
  match Option.map preprocessed_graph analyzed with
  | None | (exception Unsatisfiable _) ->
      (Depgraph.of_system (System.with_constraints system []), [])
  | Some g ->
      (* every triple's candidates live in exactly one root *)
      let cuts = List.concat_map (fun r -> r.cuts) (build_machines g (base_languages g)) in
      (g, List.mapi (fun tid c -> (c, List.length (List.assoc tid cuts))) g.concats)
