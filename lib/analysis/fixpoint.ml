module Store = Automata.Store
module Metrics = Telemetry.Metrics
module Span = Telemetry.Span

let c_iterations = Metrics.Counter.make "analysis.fixpoint.iterations"
let c_cache_hit = Metrics.Counter.make "analysis.fixpoint.cache.hit"
let c_cache_miss = Metrics.Counter.make "analysis.fixpoint.cache.miss"
let t_fixpoint = Metrics.Timer.make "analysis.fixpoint"
let t_iteration = Metrics.Timer.make "analysis.fixpoint.iteration"
let c_widen = Metrics.Counter.make "analysis.widen.count"
let c_prune_hit = Metrics.Counter.make "analysis.prune.hit"
let c_prune_miss = Metrics.Counter.make "analysis.prune.miss"

type sink_verdict = { sink_id : int; lang : Store.handle; safe : bool }

type result = {
  verdicts : sink_verdict list;
  iterations : int;
  widenings : int;
  blocks : int;
}

let safe_sink_ids r =
  List.filter_map (fun v -> if v.safe then Some v.sink_id else None) r.verdicts

let transfer block st =
  List.fold_left
    (fun st instr ->
      match instr with
      | Cfg.Assign (v, e) -> Absdom.assign st v e
      | Cfg.Query _ -> st)
    st block.Cfg.instrs

(* Propagate [out] across [edge]; [None] = the edge is infeasible. *)
let flow out (edge : Cfg.edge) =
  match edge.guard with
  | None -> Some out
  | Some g -> Absdom.refine out g.value g.cond

(* Reverse postorder of the forward CFG. Draining the worklist in
   this order processes a join point only after both arms of its
   diamond are stable, so each abstract value is computed once per
   pass instead of rippling: a FIFO queue re-propagates every partial
   join downstream, and on the branch-heavy corpus pages that
   multiplies the expensive part (automata unions, minimization) by
   the block count. Unreachable blocks keep rank [max_int]; ties
   cannot happen (ranks are distinct), so the drain order — hence
   every counter this layer emits — is deterministic. *)
let rpo_rank cfg =
  let n = Cfg.num_blocks cfg in
  let mark = Array.make n false in
  let order = ref [] in
  let rec dfs b =
    if not mark.(b) then begin
      mark.(b) <- true;
      List.iter (fun (e : Cfg.edge) -> dfs e.Cfg.dst) cfg.Cfg.succs.(b);
      order := b :: !order
    end
  in
  dfs cfg.Cfg.entry;
  let rank = Array.make n max_int in
  List.iteri (fun i b -> rank.(b) <- i) !order;
  rank

module Work = Set.Make (struct
  type t = int * int (* rank, block *)

  let compare = compare
end)

(* The blocks from which a sink block is reachable: backward
   reachability over [preds] from every block holding a [Query] with a
   sink id. States flow only forward, so a block outside this set
   never contributes to a sink language; and every predecessor of a
   live block is live, so the live blocks see exactly the states (and
   the drain order) of the full iteration. *)
let live_blocks cfg =
  let live = Array.make (Cfg.num_blocks cfg) false in
  let rec mark b =
    if not live.(b) then begin
      live.(b) <- true;
      List.iter (fun (e : Cfg.edge) -> mark e.src) cfg.Cfg.preds.(b)
    end
  in
  Array.iter
    (fun (block : Cfg.block) ->
      if
        List.exists
          (function Cfg.Query (id, _) -> id >= 0 | Cfg.Assign _ -> false)
          block.instrs
      then mark block.id)
    cfg.Cfg.blocks;
  live

let analyze ?(widen_states = 64) ?(widen_delay = 3) ~attack program =
  let cfg = Cfg.build program in
  let live = live_blocks cfg in
  Span.with_span ~name:"analysis.fixpoint"
    ~attrs:
      [
        ("blocks", `Int (Cfg.num_blocks cfg));
        ( "live_blocks",
          `Int (Array.fold_left (fun n l -> if l then n + 1 else n) 0 live) );
        ("sinks", `Int cfg.num_sinks);
      ]
  @@ fun () ->
  Metrics.Timer.time t_fixpoint @@ fun () ->
  let attack = Store.intern attack in
  let n = Cfg.num_blocks cfg in
  (* abstract state at each block's entry; None = not (yet) reachable *)
  let state : Absdom.t option array = Array.make n None in
  let visits = Array.make n 0 in
  let in_queue = Array.make n false in
  let rank = rpo_rank cfg in
  let work = ref Work.empty in
  let enqueue b =
    if not in_queue.(b) then begin
      in_queue.(b) <- true;
      work := Work.add (rank.(b), b) !work
    end
  in
  if live.(cfg.entry) then begin
    state.(cfg.entry) <- Some Absdom.top;
    enqueue cfg.entry
  end;
  let iterations = ref 0 in
  let widenings = ref 0 in
  while not (Work.is_empty !work) do
    Metrics.Timer.time t_iteration @@ fun () ->
    Automata.Budget.tick ();
    let _, b = Work.min_elt !work in
    work := Work.remove (rank.(b), b) !work;
    in_queue.(b) <- false;
    incr iterations;
    Metrics.Counter.incr c_iterations 1;
    match state.(b) with
    | None -> ()
    | Some st ->
        let out = transfer cfg.blocks.(b) st in
        List.iter
          (fun (edge : Cfg.edge) ->
            match flow out edge with
            | None -> ()
            | Some out ->
                let d = edge.dst in
                let candidate, grew =
                  match state.(d) with
                  | None -> (out, true)
                  | Some old ->
                      if cfg.blocks.(d).loop_head then begin
                        visits.(d) <- visits.(d) + 1;
                        let w, count =
                          Absdom.widen ~max_states:widen_states
                            ~force:(visits.(d) > widen_delay) old out
                        in
                        widenings := !widenings + count;
                        Metrics.Counter.incr c_widen count;
                        (w, not (Absdom.leq w old))
                      end
                      else
                        let j = Absdom.join old out in
                        (j, not (Absdom.leq j old))
                in
                if grew then begin
                  state.(d) <- Some candidate;
                  enqueue d
                end)
          (List.filter (fun (e : Cfg.edge) -> live.(e.dst)) cfg.succs.(b))
  done;
  (* Converged: one more transfer pass per reachable block collects
     the sink languages under the stable entry states. *)
  let sink_langs : Store.handle option array = Array.make cfg.num_sinks None in
  Array.iter
    (fun (block : Cfg.block) ->
      match state.(block.id) with
      | None -> ()
      | Some st ->
          ignore
            (List.fold_left
               (fun st instr ->
                 match instr with
                 | Cfg.Assign (v, e) -> Absdom.assign st v e
                 | Cfg.Query (id, e) ->
                     if id >= 0 then begin
                       let l = Absdom.eval st e in
                       sink_langs.(id) <-
                         Some
                           (match sink_langs.(id) with
                           | None -> l
                           | Some prev -> Store.union_lang prev l)
                     end;
                     st)
               st block.instrs))
    cfg.blocks;
  let verdicts =
    List.init cfg.num_sinks (fun sink_id ->
        let lang =
          match sink_langs.(sink_id) with
          | Some l -> l
          | None -> Store.intern Automata.Nfa.empty_lang (* unreachable sink *)
        in
        let safe = Store.disjoint lang attack in
        Metrics.Counter.incr (if safe then c_prune_hit else c_prune_miss) 1;
        { sink_id; lang; safe })
  in
  { verdicts; iterations = !iterations; widenings = !widenings; blocks = n }

(* ------------------------------------------------------------------ *)
(* Result cache                                                       *)

(* The analysis is a pure function of (widening parameters, attack,
   program), so its result can be reused wholesale when the same page
   is analyzed again — the steady-state shape of webcheck serving a
   corpus, where re-running the fixpoint per request re-derives the
   same verdicts from warm memo tables at nonzero cost. The table is
   per-domain (verdicts carry store handles, which must not cross
   workers) and is reset with the store: handles minted before a
   [Store.clear] are stale with respect to the rebuilt intern table,
   and serving them would silently fork the hash-consing identity. *)
let cache :
    ( int * int * Automata.Nfa.t * Webapp.Ast.program,
      result )
    Hashtbl.t
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let () = Store.on_clear (fun () -> Hashtbl.reset (Domain.DLS.get cache))

let analyze_cached ?(widen_states = 64) ?(widen_delay = 3) ~attack program =
  let tbl = Domain.DLS.get cache in
  let key = (widen_states, widen_delay, attack, program) in
  match Hashtbl.find_opt tbl key with
  | Some r ->
      Metrics.Counter.incr c_cache_hit 1;
      r
  | None ->
      Metrics.Counter.incr c_cache_miss 1;
      let r = analyze ~widen_states ~widen_delay ~attack program in
      Hashtbl.replace tbl key r;
      r
