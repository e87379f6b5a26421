module Ast = Webapp.Ast
module Semantics = Webapp.Semantics
module Nfa = Automata.Nfa
module Store = Automata.Store
module SMap = Map.Make (String)

type value = Store.handle

(* Missing key = Σ* (top). Keeping top implicit makes [top] itself
   O(1) and lets join drop keys instead of materialising Σ* unions. *)
type t = { vars : value SMap.t; inputs : value SMap.t }

let top = { vars = SMap.empty; inputs = SMap.empty }

(* Σ* served from the store's per-domain cache: a pointer read after
   the first ask, and safe across Engine.map workers (each domain
   caches its own handle). *)
let top_value () = Store.top ()

let lookup map k = match SMap.find_opt k map with Some h -> h | None -> top_value ()

let lookup_var st v = lookup st.vars v

let lookup_input st n = lookup st.inputs n

let rec eval st : Ast.expr -> value = function
  | Ast.Str s -> Store.of_word s
  | Ast.Var v -> lookup_var st v
  | Ast.Input n -> lookup_input st n
  | Ast.Concat (a, b) -> Store.concat_lang (eval st a) (eval st b)
  | Ast.Sanitize (s, e) ->
      Store.intern
        (Automata.Fst.image (Semantics.fst s) (Store.nfa (eval st e)))

let assign st v e = { st with vars = SMap.add v (eval st e) st.vars }

(* Chains of refinements and joins multiply product states even when
   the denoted language barely changes (q ∩ ¬w₁ ∩ … ∩ ¬wₖ doubles a
   machine per step while excluding k words). Values above this bound
   are collapsed to their minimal DFA before being stored back. *)
let compact_above = 64

let t_compact = Telemetry.Metrics.Timer.make "analysis.absdom.compact"
let t_closure = Telemetry.Metrics.Timer.make "analysis.absdom.closure"

let compact h =
  if Nfa.num_states (Store.nfa h) <= compact_above then h
  else Telemetry.Metrics.Timer.time t_compact (fun () -> Store.compacted h)

(* Above this bound, refinement keeps the unrefined binding instead of
   paying for a determinization of the product: narrowing is an
   optimization, so a wider value is always sound. *)
let narrow_limit = 2048

(* Pointwise union; a key absent on either side is Σ* there, so the
   union is Σ* — absent in the result. *)
let join a b =
  let merge _ x y =
    match (x, y) with
    | Some x, Some y -> Some (compact (Store.union_lang x y))
    | _ -> None
  in
  {
    vars = SMap.merge merge a.vars b.vars;
    inputs = SMap.merge merge a.inputs b.inputs;
  }

let leq a b =
  let sub amap bmap =
    SMap.for_all (fun k vb -> Store.subset (lookup amap k) vb) bmap
  in
  sub a.vars b.vars && sub a.inputs b.inputs

let equal a b = leq a b && leq b a

(* ------------------------------------------------------------------ *)
(* Widening                                                           *)

(* Alphabet closure A(L)* where A(L) is the union of the transition
   charsets of the trimmed machine: an over-approximation of L (every
   accepted word spends only chars of A(L)) whose ascending chains are
   bounded by the ≤256-char alphabet. *)
let alphabet_closure h =
  Telemetry.Metrics.Timer.time t_closure @@ fun () ->
  let a =
    Nfa.fold_char_transitions (Store.minimized h) ~init:Charset.empty
      ~f:(fun acc _ cs _ -> Charset.union acc cs)
  in
  Store.intern (Automata.Ops.star (Nfa.of_charset a))

(* [widen ~max_states ~force prev next] returns an upper bound of both
   arguments, per key: the stable previous value when nothing grew, the
   plain union while it stays small, and the alphabet closure once the
   union machine crosses [max_states] (or unconditionally under
   [force], the fixpoint's bound on widening delay). Returns the new
   state and how many keys were collapsed to a closure. *)
let widen ~max_states ~force prev next =
  let widened = ref 0 in
  let merge _ x y =
    match (x, y) with
    | Some p, Some n ->
        if Store.subset n p then Some p
        else
          let u = compact (Store.union_lang p n) in
          if (not force) && Nfa.num_states (Store.nfa u) <= max_states then
            Some u
          else begin
            incr widened;
            Some (alphabet_closure u)
          end
    | _ -> None
  in
  let st =
    {
      vars = SMap.merge merge prev.vars next.vars;
      inputs = SMap.merge merge prev.inputs next.inputs;
    }
  in
  (st, !widened)

(* ------------------------------------------------------------------ *)
(* Condition refinement                                               *)

(* Intersect the operand's abstraction with the branch language. A
   syntactic variable or input read narrows the binding itself; any
   other operand still gets a feasibility check (an empty intersection
   proves the edge dead), which is sound because values only shrink. *)
let refine_expr st e lang =
  match e with
  | Ast.Var v ->
      let h = Store.inter_lang (lookup_var st v) lang in
      if Store.is_empty h then None
      else if Nfa.num_states (Store.nfa h) > narrow_limit then Some st
      else Some { st with vars = SMap.add v (compact h) st.vars }
  | Ast.Input n ->
      let h = Store.inter_lang (lookup_input st n) lang in
      if Store.is_empty h then None
      else if Nfa.num_states (Store.nfa h) > narrow_limit then Some st
      else Some { st with inputs = SMap.add n h st.inputs }
  | _ ->
      if Store.disjoint (eval st e) lang then None else Some st

(* The branch language is the one symbolic execution turns into the
   path obligation: the prune is sound only because both ask
   [Semantics.cond_lang]. *)
let refine st value c =
  refine_expr st (Semantics.cond_operand c) (Semantics.cond_lang value c)

let bindings st =
  ( SMap.bindings st.vars |> List.map (fun (k, v) -> (k, Store.nfa v)),
    SMap.bindings st.inputs |> List.map (fun (k, v) -> (k, Store.nfa v)) )

let pp ppf st =
  let pp_side name map =
    SMap.iter
      (fun k h ->
        Fmt.pf ppf "@ %s%s ∈ ⟨%d states⟩" name k
          (Nfa.num_states (Store.nfa h)))
      map
  in
  Fmt.pf ppf "@[<v 2>{";
  pp_side "$" st.vars;
  pp_side "input:" st.inputs;
  Fmt.pf ppf "@]@ }"
