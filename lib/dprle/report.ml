module Snapshot = Telemetry.Metrics.Snapshot

type concat_census = {
  triple : Depgraph.concat;
  cuts : int;
}

type work = { visited : int; products : int; concats : int }

type t = {
  nodes : int;
  subset_edges : int;
  concat_pairs : int;
  groups : int;
  singleton_vars : int;
  cut_candidates : int;
  max_group_combinations : int;
  solutions : int;
  automata : work;
  census : concat_census list;
}

let pp_census ppf census =
  List.iter
    (fun { triple = { Depgraph.left; right; result }; cuts } ->
      Fmt.pf ppf "@ %a = %a ∘ %a: %d ε-cut(s)" Depgraph.pp_node result
        Depgraph.pp_node left Depgraph.pp_node right cuts)
    census

let pp ppf r =
  Fmt.pf ppf
    "@[<v>nodes: %d (⊆-edges %d, ∘-pairs %d)@ CI-groups: %d (+%d singleton \
     variables)@ ε-cut candidates: %d (largest group: %d combinations)@ \
     solutions: %d@ automata: visited=%d products=%d concats=%d"
    r.nodes r.subset_edges r.concat_pairs r.groups r.singleton_vars
    r.cut_candidates r.max_group_combinations r.solutions r.automata.visited
    r.automata.products r.automata.concats;
  if r.census <> [] then
    Fmt.pf ppf "@ @[<v2>ε-cuts per concatenation (§3.5 disjunction width):%a@]"
      pp_census r.census;
  Fmt.pf ppf "@]"

let solve_with_report ?(config = Solver.Config.default) system =
  let measured () =
    (* The solve runs first, so [automata] counts its own work on the
       store as the caller left it, not a store the census warmed.
       Diff-based scoping: nested [solve_with_report] calls (or any
       concurrent bracketing) each hold their own [before] snapshot, so
       they report independent counts. *)
    let before = Snapshot.of_default () in
    (* The whole measured pass (solve + census) already runs under
       [config.budget] via [with_budget] below; pass the solver an
       unlimited budget so the two do not stack. An [Error] here can
       only be the ambient outer budget firing mid-solve — re-raise it
       so the boundary below reports it uniformly. *)
    let outcome =
      match Solver.run { config with budget = Automata.Budget.unlimited } system with
      | Ok outcome -> outcome
      | Error (Solver.Error.Budget_exceeded stop) ->
          raise (Automata.Budget.Exceeded stop)
    in
    let counter = Snapshot.counter_value (Snapshot.diff ~after:(Snapshot.of_default ()) ~before) in
    let g, census = Solver.cut_census config system in
    let census = List.map (fun (triple, cuts) -> { triple; cuts }) census in
    let groups = Depgraph.ci_groups g in
    let concat_groups, singles =
      List.partition (fun members -> List.length members > 1) groups
    in
    let singleton_vars =
      List.length
        (List.filter (function [ Depgraph.Var _ ] -> true | _ -> false) singles)
    in
    (* combinations multiply within a group; find each group's product *)
    let group_products = Hashtbl.create 8 in
    List.iter
      (fun { triple = { Depgraph.result; _ }; cuts } ->
        match List.find_opt (List.exists (Depgraph.node_equal result)) concat_groups with
        | None -> ()
        | Some members ->
            let key = List.hd members in
            let current = Option.value (Hashtbl.find_opt group_products key) ~default:1 in
            Hashtbl.replace group_products key (current * max 1 cuts))
      census;
    let max_group_combinations =
      Hashtbl.fold (fun _ v acc -> max v acc) group_products 0
    in
    let solutions =
      match outcome with Solver.Sat l -> List.length l | Solver.Unsat _ -> 0
    in
    ( outcome,
      {
        nodes = List.length g.nodes;
        subset_edges = List.length g.subsets;
        concat_pairs = List.length g.concats;
        groups = List.length concat_groups;
        singleton_vars;
        cut_candidates = List.fold_left (fun acc c -> acc + c.cuts) 0 census;
        max_group_combinations;
        solutions;
        automata =
          {
            visited = counter "automata.states_visited";
            products = counter "automata.products_built";
            concats = counter "automata.concats_built";
          };
        census;
      } )
  in
  try Ok (Automata.Budget.with_budget config.budget measured)
  with Automata.Budget.Exceeded stop ->
    Error (Solver.Error.Budget_exceeded stop)
