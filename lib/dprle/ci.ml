module Nfa = Automata.Nfa
module Ops = Automata.Ops
module Store = Automata.Store

type solution = { v1 : Nfa.t; v2 : Nfa.t; cut : Nfa.state * Nfa.state }

type result = { solutions : solution list; m5 : Nfa.t; m4 : Nfa.t }

let compute m1 m2 m3 =
  (* Fig. 3 line 6: l4 = c1 ∘ c2, joined by a single ε-bridge. *)
  let cat = Ops.concat m1 m2 in
  let bridge_src, bridge_dst = cat.bridge in
  (* Fig. 3 lines 7–8: l5 = l4 ∩ c3 via the cross-product. *)
  let prod = Ops.intersect cat.machine m3 in
  let m5 = prod.machine in
  (* Lines 10–12: the interesting ε-edges are the images of the
     bridge — product states (bridge_src · d) → (bridge_dst · d). The
     product construction only creates ε-edges that share the
     right-hand component, so scanning the states whose left component
     is [bridge_src] enumerates exactly Qlhs × Qrhs ∩ δ5(·, ε). *)
  (* The emptiness filter (line 15) asks, per candidate cut (qa, qb),
     whether [induce_from_final m5 qa] or [induce_from_start m5 qb] is
     empty. Those answers are memberships in two fixed sets — states
     reachable from m5's start and states co-reachable to its final —
     so both BFS passes run once and every cut is decided by two flag
     reads instead of two full traversals. *)
  let reach = lazy (Nfa.reachable_flags m5 (Nfa.start m5)) in
  let coreach = lazy (Nfa.coreachable_flags m5 (Nfa.final m5)) in
  let solutions =
    List.filter_map
      (fun qa ->
        let left, d = prod.pair_of qa in
        if left <> bridge_src then None
        else
          match prod.state_of_pair (bridge_dst, d) with
          | None -> None
          | Some qb when not (Nfa.has_eps_edge m5 qa qb) -> None
          | Some qb ->
              if
                Nfa.Flags.mem (Lazy.force reach) qa
                && Nfa.Flags.mem (Lazy.force coreach) qb
              then
                (* Lines 13–15: slice the big machine at the cut. *)
                Some
                  {
                    v1 = Nfa.induce_from_final m5 qa;
                    v2 = Nfa.induce_from_start m5 qb;
                    cut = (qa, qb);
                  }
              else None)
      (Nfa.states m5)
  in
  { solutions; m5; m4 = cat.machine }

(* The whole result is cached on the interned operand triple: Fig. 12
   rows and symexec paths re-pose the same (c1, c2, c3) queries, and
   everything in [result] — including the state-identity provenance of
   the cut slices — is self-consistent relative to the interned
   representatives the computation ran on. The raw [Ops.concat]/
   [Ops.intersect] inside [compute] stay uncached by construction.
   Under [--no-cache] interning wraps each machine unchanged and the
   memo calls [compute] directly, so this one path serves both modes. *)
let ci_memo : result Store.Memo.t = Store.Memo.create ~op:"ci"

let concat_intersect m1 m2 m3 =
  Telemetry.Span.with_span ~name:"ci.concat_intersect"
    ~attrs:
      [
        ("m1_states", `Int (Nfa.num_states m1));
        ("m2_states", `Int (Nfa.num_states m2));
        ("m3_states", `Int (Nfa.num_states m3));
      ]
  @@ fun () ->
  let result =
    let h1 = Store.intern m1 and h2 = Store.intern m2 and h3 = Store.intern m3 in
    Store.Memo.find_or_compute ci_memo
      ~key:[ Store.id h1; Store.id h2; Store.id h3 ]
      (fun () -> compute (Store.nfa h1) (Store.nfa h2) (Store.nfa h3))
  in
  Telemetry.Span.add_attr "m5_states" (`Int (Nfa.num_states result.m5));
  Telemetry.Span.add_attr "eps_cuts" (`Int (List.length result.solutions));
  result

let solve m1 m2 m3 = (concat_intersect m1 m2 m3).solutions
