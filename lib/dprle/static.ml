module Store = Automata.Store

type severity = Warning | Info

type finding = { severity : severity; check : string; message : string }

let pp_severity ppf = function
  | Warning -> Fmt.string ppf "warning"
  | Info -> Fmt.string ppf "info"

let pp_finding ppf f =
  Fmt.pf ppf "%a: [%s] %s" pp_severity f.severity f.check f.message

(* Constraints whose right-hand constant is the empty language: the
   left side is forced empty, which is almost always an authoring
   error (a regex that matches nothing, an over-intersected constant).
   The solve itself may still be Sat — with every variable ∅. *)
let empty_rhs system =
  List.filter_map
    (fun { System.lhs = _; rhs } ->
      if Store.is_empty (System.const_handle system rhs) then
        Some
          {
            severity = Warning;
            check = "empty-rhs";
            message =
              Fmt.str
                "constant '%s' denotes the empty language; every lhs \
                 constrained by it is forced empty"
                rhs;
          }
      else None)
    (System.constraints system)

(* Variables never bounded by a direct ⊆-edge: only concatenations
   constrain them, so their solved languages ride entirely on the
   ε-cut machinery (and an unsatisfiable bound can hide in plain
   sight). *)
let unconstrained graph =
  let direct =
    List.filter_map
      (function _, Depgraph.Var v -> Some v | _ -> None)
      graph.Depgraph.subsets
  in
  List.filter_map
    (fun v ->
      if List.mem v direct then None
      else
        Some
          {
            severity = Info;
            check = "unconstrained-var";
            message =
              Fmt.str
                "variable '%s' has no direct subset constraint (bounded only \
                 through concatenations)"
                v;
          })
    (System.variables graph.Depgraph.system)

(* CI-groups where one variable feeds several ∘-edge pairs: the
   ε-cut choices couple, and the paper's §3.5 worst case — the number
   of cut combinations multiplying across concatenations — becomes
   reachable. *)
let ci_cycles graph =
  let groups = Depgraph.ci_groups graph in
  List.filter_map
    (fun group ->
      let concats_in =
        List.filter
          (fun (c : Depgraph.concat) ->
            List.exists (Depgraph.node_equal c.result) group)
          graph.Depgraph.concats
      in
      if List.length concats_in < 2 then None
      else
        let operand_vars =
          List.concat_map
            (fun (c : Depgraph.concat) ->
              List.filter_map
                (function Depgraph.Var v -> Some v | _ -> None)
                [ c.left; c.right ])
            concats_in
        in
        let shared =
          List.sort_uniq compare
            (List.filter
               (fun v ->
                 List.length (List.filter (String.equal v) operand_vars) >= 2)
               operand_vars)
        in
        if shared = [] then None
        else
          Some
            {
              severity = Info;
              check = "ci-cycle";
              message =
                Fmt.str
                  "CI-group with %d concatenations is coupled through \
                   variable(s) %s: ε-cut combinations multiply across them"
                  (List.length concats_in)
                  (String.concat ", " shared);
            })
    groups

(* The analyzer as a lint: when the static passes refute the system,
   surface the minimal explaining core — the blame a solver-level
   "unsat" alone cannot give. *)
let unsat_core system =
  match (Analyze.run system).Analyze.refute with
  | None -> []
  | Some { Analyze.cause; core } ->
      [
        {
          severity = Warning;
          check = "unsat-core";
          message =
            Fmt.str "system is unsatisfiable (%a); minimal core: %s"
              Analyze.pp_cause cause
              (String.concat "; "
                 (List.map (Fmt.str "%a" System.pp_constr) core));
        };
      ]

(* One memoized emptiness query per constraint, so auto-emitting it
   before every solve stays cheap. *)
let quick = empty_rhs

let lint system =
  let graph = Depgraph.of_system system in
  empty_rhs system @ unsat_core system @ unconstrained graph @ ci_cycles graph
