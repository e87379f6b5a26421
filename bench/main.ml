(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §3 for the experiment index).

   Each experiment has (a) a printed reproduction of the paper's
   table/figure — paper value next to measured value — and (b) a
   Bechamel micro-benchmark of its computational kernel.

   Run with:       dune exec bench/main.exe *)

module Nfa = Automata.Nfa
module Ops = Automata.Ops
module System = Dprle.System
module Solver = Dprle.Solver
module Ci = Dprle.Ci

let re = System.const_of_regex

(* All wall-clock measurements use the monotonic clock — immune to NTP
   steps; [Unix.time] survives only as the run's calendar timestamp. *)
let now_s () = Int64.to_float (Telemetry.Clock.now_ns ()) /. 1e9

let time_once f =
  let t0 = now_s () in
  let result = f () in
  (result, now_s () -. t0)

let hr title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Machine-readable output: every experiment runs bracketed by a
   metrics snapshot, and [--json PATH] dumps the per-experiment
   wall-clock plus the metric diff so the repo's perf trajectory is
   tracked file-over-file rather than eyeballed from stdout. *)

module Json = Telemetry.Json
module Snapshot = Telemetry.Metrics.Snapshot

let json_results : Json.t list ref = ref []

(* Append one record. A fact of {!Benchdiff.facts} that the records so
   far break fails the arm that measured it, so no baseline that
   breaks one is ever written. *)
let record fields =
  json_results := Json.Obj fields :: !json_results;
  match Benchdiff.facts (List.rev !json_results) with
  | [] -> ()
  | f :: _ -> failwith (Fmt.str "%a" Benchdiff.pp_finding f)

(* [f ()] together with the NFA states its constructions visited. *)
let with_visited f =
  let before = Snapshot.of_default () in
  let result = f () in
  let diff = Snapshot.diff ~after:(Snapshot.of_default ()) ~before in
  (result, Snapshot.counter_value diff "automata.states_visited")

let experiment name f =
  let before = Snapshot.of_default () in
  let t0 = now_s () in
  f ();
  let seconds = now_s () -. t0 in
  let diff = Snapshot.diff ~after:(Snapshot.of_default ()) ~before in
  Telemetry.Events.emit_global ~kind:"experiment"
    [ ("name", Json.String name); ("seconds", Json.Float seconds) ];
  record
    [
      ("name", Json.String name);
      ("seconds", Json.Float seconds);
      ("states_visited", Json.Int (Snapshot.counter_value diff "automata.states_visited"));
      ("products_built", Json.Int (Snapshot.counter_value diff "automata.products_built"));
      ("concats_built", Json.Int (Snapshot.counter_value diff "automata.concats_built"));
      ("solves", Json.Int (Snapshot.counter_value diff "solver.solves"));
      ("metrics", Snapshot.to_json diff);
    ]

let write_json path =
  let doc =
    Json.Obj
      [
        ("schema", Json.String "dprle-bench/2");
        ("unix_time", Json.Float (Unix.time ()));
        ("experiments", Json.List (List.rev !json_results));
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string doc);
      Out_channel.output_char oc '\n');
  Fmt.pr "wrote %s (%d experiments)@." path (List.length !json_results)

(* ------------------------------------------------------------------ *)
(* Fig. 1 / §2: the motivating system                                 *)

let fig1_system =
  Dprle.Sysparse.parse_exn
    {| let filter = /[\d]+$/;
       let prefix = "nid_";
       let unsafe = /'/;
       v1 <= filter;
       prefix . v1 <= unsafe; |}

(* Unlimited budget, so the [Error] arm is unreachable. *)
let run_system ?max_solutions system =
  match Solver.run (Solver.Config.make ?max_solutions ()) system with
  | Ok outcome -> outcome
  | Error e -> failwith (Solver.Error.to_string e)

let fig1_solve () = run_system ~max_solutions:4 fig1_system

let fig1_report () =
  hr "Fig. 1 / section 2 — motivating SQL-injection system";
  let outcome, dt = time_once fig1_solve in
  (match outcome with
  | Solver.Sat [ a ] ->
      let v1 = Automata.Store.minimized (Dprle.Assignment.find a "v1") in
      Fmt.pr "solution: v1 accepts %S: %b; rejects %S: %b (%.4f s)@."
        "' OR 1=1 ; DROP news --9"
        (Nfa.accepts v1 "' OR 1=1 ; DROP news --9")
        "42" (Nfa.accepts v1 "42") dt
  | Solver.Sat l -> Fmt.pr "unexpected: %d solutions@." (List.length l)
  | Solver.Unsat r -> Fmt.pr "unexpected unsat: %s@." (Solver.unsat_message r.Solver.reason));
  Fmt.pr "paper: v1 = all strings that contain a quote and end with a digit@."

(* ------------------------------------------------------------------ *)
(* Fig. 4: concat-intersect machine shapes on the running example     *)

let fig4_inputs () =
  let compact h = Automata.Lang.compact (Automata.Store.nfa h) in
  ( compact (System.const_of_word "nid_"),
    compact (System.const_of_pattern "/[\\d]+$/"),
    compact (System.const_of_pattern "/'/") )

let fig4_run () =
  let c1, c2, c3 = fig4_inputs () in
  Ci.concat_intersect c1 c2 c3

let fig4_report () =
  hr "Fig. 4 — intermediate machines of concat-intersect";
  let ({ Ci.solutions; m4; m5 }, dt) = time_once fig4_run in
  let c1, c2, c3 = fig4_inputs () in
  Fmt.pr "%-22s %8s  (paper's drawing)@." "machine" "states";
  List.iter
    (fun (name, m, paper) ->
      Fmt.pr "%-22s %8d  (%s)@." name (Nfa.num_states m) paper)
    [
      ("M1 = nid_", c1, "5 states a1-a5");
      ("M2 = Sigma*[0-9]", c2, "2 states b1-b2");
      ("M3 = Sigma*'Sigma*", c3, "2 states d1-d2");
      ("M4 = M1 . M2", m4, "7 states + eps bridge");
      ("M5 = M4 n M3", m5, "reachable pairs");
    ];
  Fmt.pr "eps-cuts: %d (paper: exactly one, at a5d1 -> b1d1); time %.4f s@."
    (List.length solutions) dt;
  match solutions with
  | [ { Ci.v1; v2; _ } ] ->
      Fmt.pr "v1 = /%s/ (paper: nid_)@." (Regex.State_elim.to_string v1);
      Fmt.pr "v2 accepts \"' OR 1=1 ; DROP news --9\": %b@."
        (Nfa.accepts v2 "' OR 1=1 ; DROP news --9")
  | _ -> Fmt.pr "unexpected solution count@."

(* ------------------------------------------------------------------ *)
(* Fig. 9/10: CI-group with a shared variable                         *)

let fig9_system =
  System.make_exn
    ~consts:
      [
        ("ca", re "o(pp)+"); ("cb", re "p*(qq)+"); ("cc", re "q*r");
        ("c1", re "op{5}q*"); ("c2", re "p*q{4}r");
      ]
    ~constraints:
      [
        { lhs = Var "va"; rhs = "ca" };
        { lhs = Var "vb"; rhs = "cb" };
        { lhs = Var "vc"; rhs = "cc" };
        { lhs = Concat (Var "va", Var "vb"); rhs = "c1" };
        { lhs = Concat (Var "vb", Var "vc"); rhs = "c2" };
      ]

let fig9_solve () = run_system fig9_system

let fig9_report () =
  hr "Fig. 9/10 — coupled concatenations (gci)";
  let outcome, dt = time_once fig9_solve in
  match outcome with
  | Solver.Unsat r -> Fmt.pr "unexpected unsat: %s@." (Solver.unsat_message r.Solver.reason)
  | Solver.Sat solutions ->
      Fmt.pr "maximal disjunctive solutions: %d (%.4f s)@."
        (List.length solutions) dt;
      List.iter
        (fun a -> Fmt.pr "  %a@." Dprle.Assignment.pp_witnesses a)
        solutions;
      Fmt.pr
        "paper 3.4.4 prints A1=[op2,p3q2,q2r] and A2=[op4,pq2,q2r]; the same@.";
      Fmt.pr
        "maximality semantics also admits the two vc=r variants (EXPERIMENTS.md).@."

(* ------------------------------------------------------------------ *)
(* Fig. 11: the corpus table                                          *)

let fig11_report () =
  hr "Fig. 11 — evaluation corpus (synthetic reconstruction)";
  Fmt.pr "%-8s %-8s | %6s %8s %10s | %6s %8s %10s@." "Name" "Version" "files"
    "LOC" "vulnerable" "files'" "LOC'" "vulnerable'";
  Fmt.pr "%-8s %-8s | %26s | %26s@." "" "" "--- paper ---" "--- regenerated ---";
  List.iter
    (fun app ->
      let files = Corpus.Fig11.generate app in
      let loc =
        List.fold_left (fun acc (_, p) -> acc + Webapp.Ast.loc p) 0 files
      in
      let vulns =
        List.length
          (List.filter
             (fun (name, _) ->
               not (String.length name >= 5 && String.sub name 0 5 = "page_"))
             files)
      in
      Fmt.pr "%-8s %-8s | %6d %8d %10d | %6d %8d %10d@." app.Corpus.Fig11.name
        app.version app.files app.loc app.vulnerable (List.length files) loc
        vulns)
    Corpus.Fig11.apps

(* ------------------------------------------------------------------ *)
(* Fig. 12: the main results table                                    *)

let solve_row row =
  let program = Corpus.Fig12.program row in
  let candidates =
    (Webapp.Symexec.analyze ~max_paths:4096 ~attack:Corpus.Fig12.attack program)
      .Webapp.Symexec.candidates
  in
  match candidates with
  | [ q ] -> (q, (Webapp.Symexec.solve q).Webapp.Symexec.assignment)
  | qs ->
      failwith (Printf.sprintf "expected one candidate, got %d" (List.length qs))

let fig12_report () =
  hr "Fig. 12 — per-vulnerability constraint solving";
  Fmt.pr "%-8s %-10s | %5s %5s %9s | %5s %5s %9s@." "app" "name" "|FG|" "|C|"
    "TS(s)" "|FG|'" "|C|'" "TS'(s)";
  Fmt.pr "%-8s %-10s | %21s | %21s@." "" "" "------- paper ------"
    "------ measured -----";
  let measured = ref [] in
  List.iter
    (fun ({ Corpus.Fig12.app; name; fg; c; paper_ts } as row) ->
      let program = Corpus.Fig12.program row in
      let fg' = Webapp.Ast.basic_blocks program in
      let (q, solved), ts = time_once (fun () -> solve_row row) in
      let status = match solved with Some _ -> "" | None -> " UNSAT?" in
      measured := (name, paper_ts, ts) :: !measured;
      Fmt.pr "%-8s %-10s | %5d %5d %9.3f | %5d %5d %9.3f%s@." app name fg c
        paper_ts fg' q.Webapp.Symexec.constraint_count ts status)
    Corpus.Fig12.rows;
  (* shape check: how many rows solve in under a second, and is the
     secure row the outlier, as in the paper (16 of 17 < 1 s)? *)
  let sub_second =
    List.length (List.filter (fun (_, _, ts) -> ts < 1.0) !measured)
  in
  Fmt.pr "@.sub-second rows: %d/%d measured (paper: 16/17)@." sub_second
    (List.length !measured);
  match
    List.assoc_opt "secure" (List.map (fun (n, _, ts) -> (n, ts)) !measured)
  with
  | Some ts ->
      let rest =
        List.filter_map
          (fun (n, _, ts) -> if n = "secure" then None else Some ts)
          !measured
      in
      let worst_rest = List.fold_left max 0.0 rest in
      Fmt.pr "secure outlier factor: %.0fx the slowest other row (paper: %.0fx)@."
        (ts /. worst_rest)
        (577.0 /. 0.65)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Section 3.5: state-space complexity sweeps                         *)

(* Structured Q-parameterized language family: [a{0,Q}] machines have
   Θ(Q) states, and [(aa){0,Q}] as the bound gives Θ(Q) ε-cuts, so
   both the machine-size and the enumeration terms of the paper's
   analysis are exercised with a clean growth signal. *)
let chain q = Ops.repeat (Nfa.of_charset (Charset.singleton 'a')) ~min_count:0 ~max_count:(Some q)

let even_chain q =
  Ops.repeat (Nfa.of_word "aa") ~min_count:0 ~max_count:(Some q)

let sec35_single q =
  let c1 = chain q and c2 = chain q in
  let c3 = even_chain q in
  let { Ci.solutions; m5; _ }, visited =
    with_visited (fun () -> Ci.concat_intersect c1 c2 c3)
  in
  (visited, Nfa.num_states m5, List.length solutions)

(* (c1 ∘ c2) ∘ c3 intersected with c4 — the paper's two-level case.
   We build the machine exactly as the solver does and count, via the
   provenance maps, how many ε-cut combinations (= disjunctive
   solutions before the emptiness filter) the enumeration would have
   to visit: the |solutions| × |machine| product is the O(Q⁵) term of
   §3.5. *)
let sec35_chained q =
  let c1 = chain q and c2 = chain q and c3 = chain q in
  let c4 = Ops.repeat (Nfa.of_word "aaa") ~min_count:0 ~max_count:(Some q) in
  let (inner, outer, prod), visited =
    with_visited (fun () ->
        let inner = Ops.concat c1 c2 in
        let outer = Ops.concat inner.machine c3 in
        (inner, outer, Ops.intersect outer.machine c4))
  in
  let count_cuts (src, dst) embed =
    List.length
      (List.filter
         (fun s ->
           let p, d = prod.pair_of s in
           p = embed src
           &&
           match prod.state_of_pair (embed dst, d) with
           | Some s' -> Nfa.has_eps_edge prod.machine s s'
           | None -> false)
         (Nfa.states prod.machine))
  in
  let outer_cuts = count_cuts outer.bridge Fun.id in
  let inner_cuts = count_cuts inner.bridge outer.left_embed in
  (visited, Nfa.num_states prod.machine, inner_cuts * outer_cuts)

let sec35_report () =
  hr "Section 3.5 — state-space complexity of concat-intersect";
  Fmt.pr "single CI call: machine construction is O(Q^2) states visited; full@.";
  Fmt.pr "enumeration is bounded by |M3| solutions (O(Q^3) total).@.@.";
  Fmt.pr "%6s %12s %12s %10s %12s %14s@." "Q" "visited" "/Q^2" "|M5|"
    "solutions" "sols*|M5|/Q^3";
  List.iter
    (fun q ->
      let visited, m5, sols = sec35_single q in
      Fmt.pr "%6d %12d %12.2f %10d %12d %14.3f@." q visited
        (float_of_int visited /. float_of_int (q * q))
        m5 sols
        (float_of_int (sols * m5) /. float_of_int (q * q * q)))
    [ 4; 8; 16; 32; 64 ];
  Fmt.pr "@.chained (v1.v2).v3 <= c4 — inductive application (paper: O(Q^5) bound):@.";
  Fmt.pr "%6s %12s %12s %10s %12s %16s@." "Q" "visited" "/Q^2" "|M|" "combos"
    "combos*|M|/Q^4";
  List.iter
    (fun q ->
      let visited, m, combos = sec35_chained q in
      Fmt.pr "%6d %12d %12.2f %10d %12d %16.4f@." q visited
        (float_of_int visited /. float_of_int (q * q))
        m combos
        (float_of_int (combos * m)
        /. (float_of_int q ** 4.0)))
    [ 4; 8; 16; 32; 64 ];
  Fmt.pr "(stabilizing ratios: machine construction stays quadratic in Q while@.";
  Fmt.pr " eager enumeration of every disjunct grows as Θ(Q^4) on this family —@.";
  Fmt.pr " within the paper's O(Q^5) worst-case bound.)@."

(* ------------------------------------------------------------------ *)
(* Ablation: NFA minimization of intermediate machines (§4 remark)    *)

(* The same language as /'/ but with k redundant copies unioned in:
   models the unminimized intermediate machines the paper blames for
   the secure row. *)
let bloated_attack k =
  let quote () = Automata.Store.nfa (System.const_of_pattern "/'/") in
  let rec go n acc =
    if n = 0 then acc else go (n - 1) (Ops.union_lang acc (quote ()))
  in
  go k (quote ())

let ablation_inputs k =
  let filler =
    String.concat "" (List.init 40 (fun i -> Printf.sprintf "col%d," i))
  in
  let c1 =
    Automata.Store.nfa
      (System.const_of_word ("SELECT " ^ filler ^ " FROM news WHERE id=nid_"))
  in
  let c2 = Automata.Store.nfa (System.const_of_pattern "/[\\d]+$/") in
  (c1, c2, bloated_attack k)

let ablation_run c1 c2 c3 =
  let { Ci.solutions; m5; _ }, visited =
    with_visited (fun () -> Ci.concat_intersect c1 c2 c3)
  in
  (visited, Nfa.num_states m5, List.length solutions)

let ablation_report () =
  hr "Ablation — minimizing intermediate NFAs (paper section 4 remark)";
  Fmt.pr "the paper: \"more efficient use of the intermediate NFAs (e.g., by@.";
  Fmt.pr " applying NFA minimization techniques) might improve performance\"@.@.";
  Fmt.pr "%4s | %10s %8s %6s | %10s %8s %6s@." "k" "visited" "|M5|" "cuts"
    "visited'" "|M5|'" "cuts'";
  Fmt.pr "%4s | %26s | %26s@." "" "---- raw machines ----"
    "---- minimized first ----";
  List.iter
    (fun k ->
      let c1, c2, c3 = ablation_inputs k in
      let v, m, s = ablation_run c1 c2 c3 in
      let v', m', s' =
        ablation_run (Automata.Lang.compact c1) (Automata.Lang.compact c2)
          (Automata.Lang.compact c3)
      in
      Fmt.pr "%4d | %10d %8d %6d | %10d %8d %6d@." k v m s v' m' s')
    [ 0; 1; 2; 4; 8; 16 ];
  Fmt.pr "@.minimization collapses the redundant copies: visited' stays flat@.";
  Fmt.pr "while visited grows linearly in k, and the spurious duplicate@.";
  Fmt.pr "eps-cuts (one per redundant copy) disappear.@."

(* ------------------------------------------------------------------ *)
(* Parallel engine: the Fig. 12 workload (minus the pathological
   secure row) fanned out over 1, 4, and 8 worker domains.  The
   per-arm wall clock and the speedup over the jobs=1 arm land in the
   JSON; on a single-core container every arm serializes and the
   speedup stays ≈1, which is the honest number for this machine —
   the arms still exercise the engine's spawn/merge path and pin its
   determinism overhead.                                              *)

let parallel_report () =
  hr "Parallel engine — batch solve over the Fig. 12 corpus";
  let rows =
    List.filter (fun r -> r.Corpus.Fig12.name <> "secure") Corpus.Fig12.rows
  in
  let repeats = 3 in
  let work = List.concat (List.init repeats (fun _ -> rows)) in
  let solve _worker row =
    match solve_row row with _, Some _ -> true | _, None -> false
  in
  let arm jobs =
    Automata.Store.clear ();
    let results, stats = Engine.map ~jobs ~name:"bench" ~f:solve work in
    let ok =
      List.length
        (List.filter
           (fun (r : _ Engine.job_result) ->
             match r.outcome with Engine.Done _ -> true | _ -> false)
           results)
    in
    (Int64.to_float stats.Engine.wall_ns /. 1e9, ok)
  in
  let base_seconds = ref 0.0 in
  Fmt.pr "%d Fig. 12 solves per arm (%d rows x %d repeats)@." (List.length work)
    (List.length rows) repeats;
  List.iter
    (fun jobs ->
      let seconds, ok = arm jobs in
      if jobs = 1 then base_seconds := seconds;
      let speedup = !base_seconds /. seconds in
      Fmt.pr "jobs=%d: %8.3f s  (%d/%d jobs done, %.2fx vs jobs=1)@." jobs
        seconds ok (List.length work) speedup;
      record
        [
          ("name", Json.String (Printf.sprintf "parallel/jobs%d" jobs));
          ("jobs", Json.Int jobs);
          ("seconds", Json.Float seconds);
          ("speedup_vs_jobs1", Json.Float speedup);
        ])
    [ 1; 4; 8 ];
  Fmt.pr "(speedup tracks the machine's core count; the arms also pin the@.";
  Fmt.pr " engine's determinism contract: results merge in submission order.)@."

(* Spawn amortization: the same multi-batch workload run with a fresh
   transient pool per batch (what Engine.map does) versus one
   persistent pool reused across batches.  Domain spawn/join is the
   fixed tax per batch; the persistent pool pays it once, and its
   workers keep their domain-local stores warm between batches.  The
   speedup here is meaningful even on a single-core runner — it
   measures overhead, not parallelism — which is what makes it the
   honest criterion where core-starved jobs4 can't hit its ratio. *)

let pool_reuse_report () =
  hr "Pool reuse — spawn-per-batch vs a persistent worker pool";
  let rows =
    List.filter (fun r -> r.Corpus.Fig12.name <> "secure") Corpus.Fig12.rows
  in
  let batches = 4 and jobs = 4 in
  let solve _worker row =
    match solve_row row with _, Some _ -> true | _, None -> false
  in
  let time f =
    let t0 = Telemetry.Clock.now_ns () in
    f ();
    Int64.to_float (Int64.sub (Telemetry.Clock.now_ns ()) t0) /. 1e9
  in
  Automata.Store.clear ();
  let seconds_spawn =
    time (fun () ->
        for _ = 1 to batches do
          ignore (Engine.map ~jobs ~name:"bench-spawn" ~f:solve rows)
        done)
  in
  Automata.Store.clear ();
  let seconds_pool =
    time (fun () ->
        Engine.Pool.with_pool ~name:"bench-pool" ~size:jobs @@ fun pool ->
        for _ = 1 to batches do
          ignore (Engine.Pool.map pool ~name:"bench-pool" ~f:solve rows)
        done)
  in
  let speedup = seconds_spawn /. seconds_pool in
  Fmt.pr "%d batches x %d rows, %d workers@." batches (List.length rows) jobs;
  Fmt.pr "spawn per batch: %8.3f s@." seconds_spawn;
  Fmt.pr "persistent pool: %8.3f s  (%.2fx)@." seconds_pool speedup;
  record
    [
      ("name", Json.String "parallel/pool_reuse");
      ("jobs", Json.Int jobs);
      ("batches", Json.Int batches);
      ("seconds_spawn_per_batch", Json.Float seconds_spawn);
      ("seconds_pool", Json.Float seconds_pool);
      ("speedup_pool_vs_spawn", Json.Float speedup);
    ];
  Fmt.pr "(the persistent pool spawns its domains once and keeps per-worker@.";
  Fmt.pr " stores warm across batches; spawn-per-batch pays both taxes each@.";
  Fmt.pr " time — the recorded jobs-vs-jobs1 regression was mostly this.)@."

(* ------------------------------------------------------------------ *)
(* On/off ablations: one back-to-back pair of walls drifts with the
   host's load, so each arm runs [ablation_trials] times (unless it
   costs seconds), alternating on and off, and the JSON records the
   per-arm median.                                                    *)

let ablation_trials = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* [on] and [off] results of [trials] alternating runs *)
let alternate ?(trials = ablation_trials) ~on ~off () =
  List.split (List.init trials (fun _ -> let r = on () in (r, off ())))

(* ------------------------------------------------------------------ *)
(* DFA minimization on literal chains: the DFA of one word over 26
   letters is already minimal, so every class is a singleton and the
   refinement splits all the way down. Moore's refinement took a round
   per state there, quadratic in the chain; Hopcroft's is O(m log n).
   The median of [ablation_trials] runs per length.                   *)

let chain_states = [ 261; 521; 1041; 2081 ]

let minimize_chain_report () =
  hr "DFA minimization — literal chains";
  let rng = Random.State.make [| 0xc4a1; 0x5e7 |] in
  Fmt.pr "%8s %12s@." "states" "minimize";
  List.iter
    (fun states ->
      let w =
        String.init (states - 1) (fun _ ->
            Char.chr (Char.code 'a' + Random.State.int rng 26))
      in
      let d = Automata.Dfa.of_nfa (Nfa.of_word w) in
      let runs =
        List.init ablation_trials (fun _ ->
            time_once (fun () -> Automata.Dfa.minimize d))
      in
      let seconds = median (List.map snd runs) in
      let minimized = Automata.Dfa.num_states (fst (List.hd runs)) in
      Fmt.pr "%8d %9.3f ms@." states (seconds *. 1e3);
      record
        [
          ("name", Json.String (Fmt.str "minimize/chain/%d" states));
          ("states", Json.Int states);
          ("minimized_states", Json.Int minimized);
          ("seconds", Json.Float seconds);
        ])
    chain_states

(* ------------------------------------------------------------------ *)
(* Pipeline ablations: webcheck's §4 pipeline (plan → solve) with one
   layer on and then off, each arm serving its corpus [passes] times
   against one warm store — the webcheck deployment shape, where a
   page is analyzed per request and the hash-consed memos carry
   results across requests.  A single cold pass told the opposite
   story (the recorded regression): it billed the "on" arm the
   one-time cost of filling the memo tables and the "off" arm
   nothing.  Counters are recorded per pass (they are identical every
   pass and every trial; the arm checks that), and both arms must
   agree on every per-file verdict.                                   *)

let pipeline_arm ~static_prune ~config ~passes files =
  let attack = Corpus.Fig12.attack in
  Automata.Store.clear ();
  let before = Snapshot.of_default () in
  let t0 = now_s () in
  let pruned = ref 0 in
  let verdicts = ref [] in
  for pass = 1 to passes do
    let vs =
      List.map
        (fun (name, program) ->
          (* the pre-pass off, so a prune arm always runs the fixpoint;
             webcheck's path limit, so every page is enumerated and
             solved as webcheck does it *)
          let plan =
            Analysis.Pipeline.plan ~prepass_paths:0
              ~max_paths:Analysis.Pipeline.default_max_paths ~static_prune
              ~attack program
          in
          if pass = 1 then
            pruned :=
              !pruned + List.length plan.Analysis.Pipeline.safe_sink_ids;
          ( name,
            Seq.exists
              (fun (_, v) -> v.Webapp.Symexec.assignment <> None)
              (Analysis.Pipeline.solve ~config plan) ))
        files
    in
    (match !verdicts with
    | prev :: _ when prev <> vs -> failwith "verdicts changed across passes"
    | _ -> ());
    verdicts := [ vs ]
  done;
  let seconds = now_s () -. t0 in
  let diff = Snapshot.diff ~after:(Snapshot.of_default ()) ~before in
  let total_solves = Snapshot.counter_value diff "solver.solves" in
  if total_solves mod passes <> 0 then
    failwith "solves not constant across passes";
  (List.hd !verdicts, seconds, total_solves / passes, !pruned)

(* Both arms of the ablation of [layer]; the other layer stays off in
   both, so each experiment isolates one layer. *)
let pipeline_ablation layer ~trials ~passes files =
  let prefix =
    match layer with `Static_prune -> "static_prune" | `Analyze -> "analyze"
  in
  let run on () =
    let config =
      {
        Dprle.Solver.Config.default with
        Dprle.Solver.Config.analyze = on && layer = `Analyze;
      }
    in
    pipeline_arm ~static_prune:(on && layer = `Static_prune) ~config ~passes
      files
  in
  let arm name runs =
    let verdicts, _, solves, pruned = List.hd runs in
    if List.exists (fun (v, _, s, p) -> (v, s, p) <> (verdicts, solves, pruned)) runs
    then failwith (prefix ^ ": trials disagree");
    let seconds = median (List.map (fun (_, s, _, _) -> s) runs) in
    Fmt.pr "%-4s %8.3f s  %5d solves/pass  %3d sinks pruned@." name seconds
      solves pruned;
    record
      ([
         ("name", Json.String (prefix ^ "/" ^ name));
         ("seconds", Json.Float seconds);
         ("passes", Json.Int passes);
         ("solves", Json.Int solves);
       ]
      @ (if layer = `Static_prune then [ ("sinks_pruned", Json.Int pruned) ]
         else [])
      @ [ ("vulnerable", Json.Int (List.length (List.filter snd verdicts))) ]);
    verdicts
  in
  Fmt.pr "%d files x %d passes per arm, median of %d trial(s)@."
    (List.length files) passes trials;
  let ons, offs = alternate ~trials ~on:(run true) ~off:(run false) () in
  let on = arm "on" ons in
  let off = arm "off" offs in
  if on <> off then failwith (prefix ^ ": arms disagree on a verdict");
  Fmt.pr "verdicts identical across arms: true@."

(* Static prune: the eve corpus with the dataflow layer proving sinks
   safe vs symbolic execution alone; the solves column records the RMA
   work the prune skips. *)
let static_prune_report () =
  hr "Static-prune ablation — dataflow analysis vs symbolic execution alone";
  Fmt.pr "eve corpus: ";
  pipeline_ablation `Static_prune ~trials:ablation_trials ~passes:32
    (Corpus.Fig11.generate (List.hd Corpus.Fig11.apps));
  Fmt.pr "(pruning skips path enumeration and the per-candidate RMA solves@.";
  Fmt.pr " for sinks the fixpoint proved safe; it must never change a@.";
  Fmt.pr " verdict. passes share one store, as webcheck requests do.)@."

(* Analyze: the pre-solve static pipeline (normalization, bounds
   propagation, discharge, goal-directed slicing) over the fig12 rows
   plus the eve corpus.  Candidates the bounds pass refutes never reach
   [solve_graph], so the "on" arm runs strictly fewer solves. *)
let analyze_report () =
  hr "Analyze ablation — pre-solve static pipeline vs solver alone";
  let fig12 =
    List.map
      (fun row -> ("fig12/" ^ row.Corpus.Fig12.name, Corpus.Fig12.program row))
      Corpus.Fig12.rows
  in
  Fmt.pr "fig12 + eve corpus: ";
  (* one trial: each arm takes seconds, and the gate has headroom *)
  pipeline_ablation `Analyze ~trials:1 ~passes:8
    (fig12 @ Corpus.Fig11.generate (List.hd Corpus.Fig11.apps));
  Fmt.pr "(bounds propagation refutes statically-safe candidates before any@.";
  Fmt.pr " group machine is built — those never reach solve_graph, so the@.";
  Fmt.pr " solves column drops; slicing and discharge shrink the rest.)@."

(* ------------------------------------------------------------------ *)
(* Extension experiment: solving through sanitizers (transducer
   preimages) — the related-work FST direction made executable        *)

let sanitizer_programs =
  [
    ("raw", {|$x = input("x");
query("SELECT * FROM t WHERE a = '" . $x . "'");|});
    ("strip", {|$x = input("x");
query("SELECT * FROM t WHERE a = '" . str_replace("'", "", $x) . "'");|});
    ("addslashes", {|$x = input("x");
query("SELECT * FROM t WHERE a = '" . addslashes($x) . "'");|});
  ]

let sanitizer_solve source =
  Webapp.Symexec.first_exploit ~attack:Webapp.Attack.unbalanced_quote
    (Webapp.Lang_parser.parse_exn source)

let sanitizers_report () =
  hr "Extension — sanitizer verification via transducer preimages";
  Fmt.pr "attack: odd number of unescaped quotes (break out of the literal)@.";
  List.iter
    (fun (name, source) ->
      let outcome, dt = time_once (fun () -> sanitizer_solve source) in
      match outcome with
      | Some inputs ->
          Fmt.pr "%-12s EXPLOITABLE  x = %S  (%.3f s)@." name
            (List.assoc "x" inputs) dt
      | None -> Fmt.pr "%-12s proved clean (unsat)  (%.3f s)@." name dt)
    sanitizer_programs;
  Fmt.pr "expected shape: raw exploitable; addslashes proved clean.@."

(* ------------------------------------------------------------------ *)
(* Cache ablation: the interned language store on vs off.  Each
   workload runs against a freshly cleared store (the default
   configuration) and with the store disabled, which is exactly what
   the binaries' --no-cache flag does; the median walls and the
   store.opcache.hit diff land in the JSON so the checked-in
   BENCH_dprle.json carries both arms.                                *)

module Store = Automata.Store

let cache_ablation name workload =
  let arm () =
    Store.clear ();
    let before = Snapshot.of_default () in
    let t0 = now_s () in
    workload ();
    let seconds = now_s () -. t0 in
    let diff = Snapshot.diff ~after:(Snapshot.of_default ()) ~before in
    (seconds, Snapshot.counter_total diff "store.opcache.hit")
  in
  let uncached () =
    Store.set_enabled false;
    Fun.protect ~finally:(fun () -> Store.set_enabled true) arm
  in
  let cached, uncached = alternate ~on:arm ~off:uncached () in
  (* a cleared store makes every trial do the same work *)
  let hits runs =
    match List.sort_uniq Int.compare (List.map snd runs) with
    | [ h ] -> h
    | _ -> failwith (name ^ ": op-cache hits differ across trials")
  in
  let seconds_cached = median (List.map fst cached)
  and seconds_uncached = median (List.map fst uncached) in
  let hit_cached = hits cached and hit_uncached = hits uncached in
  Fmt.pr "%-22s %8.4f s, %6d hits | %8.4f s, %d hits@." name seconds_cached
    hit_cached seconds_uncached hit_uncached;
  record
    [
      ("name", Json.String ("cache_ablation/" ^ name));
      ("seconds_cached", Json.Float seconds_cached);
      ("seconds_uncached", Json.Float seconds_uncached);
      ("opcache_hit_cached", Json.Int hit_cached);
      ("opcache_hit_uncached", Json.Int hit_uncached);
    ]

let cache_ablation_report () =
  hr "Cache ablation — interned language store vs --no-cache";
  Fmt.pr "answers are identical either way; only the work differs.@.@.";
  Fmt.pr "%-22s %22s | %s@." "workload" "---- cached ----"
    "--- uncached ---";
  cache_ablation "fig12_main" (fun () ->
      List.iter (fun row -> ignore (solve_row row)) Corpus.Fig12.rows);
  cache_ablation "extension_sanitizers" (fun () ->
      List.iter
        (fun (_, source) -> ignore (sanitizer_solve source))
        sanitizer_programs);
  (let c1, c2, c3 = ablation_inputs 8 in
   cache_ablation "ablation_minimize" (fun () ->
       for _ = 1 to 5 do
         ignore (ablation_run c1 c2 c3)
       done));
  Fmt.pr "@.(the uncached arm must show zero op-cache hits: with the store@.";
  Fmt.pr " disabled every operation recomputes from scratch.)@."

(* ------------------------------------------------------------------ *)
(* Observability overhead: the fig12 solve workload with the timer
   registry recording (the default) vs globally disabled via
   [Metrics.set_timing_enabled false], medians of alternating trials.
   The two wall clocks land in the JSON so a timer added on a hot path
   shows up as a growing gap between the arms — the acceptance bound
   is ±10% on this workload. *)

let observability_report () =
  hr "Observability — timer overhead on the Fig. 12 workload";
  let workload () =
    List.iter (fun row -> ignore (solve_row row)) Corpus.Fig12.rows
  in
  let arm () =
    Store.clear ();
    let t0 = now_s () in
    workload ();
    now_s () -. t0
  in
  let untimed () =
    Telemetry.Metrics.set_timing_enabled false;
    Fun.protect ~finally:(fun () -> Telemetry.Metrics.set_timing_enabled true) arm
  in
  let timed, untimed = alternate ~on:arm ~off:untimed () in
  let seconds_timed = median timed and seconds_untimed = median untimed in
  Fmt.pr "timers on:  %8.4f s@.timers off: %8.4f s@.overhead:   %+.1f%%@."
    seconds_timed seconds_untimed
    (100. *. ((seconds_timed -. seconds_untimed) /. seconds_untimed));
  record
    [
      ("name", Json.String "observability/overhead");
      ("seconds_timed", Json.Float seconds_timed);
      ("seconds_untimed", Json.Float seconds_untimed);
    ]

(* ------------------------------------------------------------------ *)
(* Serve harness: the resident daemon measured through the wire.
   Three arms land in the JSON — cold (a fresh daemon per request,
   paying pool spawn and first-touch store fills every time), warm
   (one daemon, one connection, repeated identical solves against an
   ever-warmer worker store), and concurrent (four client threads
   hammering one daemon).  Every number here is wall clock plus queue
   noise by construction, so [Benchdiff] compares only the serve/*
   records' field sets and gates the warm arm's
   [speedup_warm_vs_cold], the figure the roadmap tracks.             *)

let serve_system =
  "let filter = /[\\d]+$/;\n\
   let prefix = \"nid_\";\n\
   let unsafe = /'/;\n\
   v1 <= filter;\n\
   prefix . v1 <= unsafe;\n"

let serve_request ~id kind =
  { Api.Request.id; kind; budget_ms = None; budget_states = None }

let serve_solve_request id =
  serve_request ~id
    (Api.Request.Solve (Api.Request.solve_defaults ~system:serve_system))

let serve_socket_seq = ref 0

let serve_fresh_listen () =
  incr serve_socket_seq;
  Serve.Server.Unix_socket
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "dprle-bench-%d-%d.sock" (Unix.getpid ())
          !serve_socket_seq))

(* Daemon on a thread; always shut down and joined, even when [f]
   raises. *)
let serve_with_daemon f =
  let listen = serve_fresh_listen () in
  let t =
    Thread.create
      (fun () ->
        ignore (Serve.Server.run (Serve.Server.default_config listen)))
      ()
  in
  let finally () =
    (match Serve.Client.connect listen with
    | Ok c ->
        ignore (Serve.Client.request c (serve_request ~id:"bye" Api.Request.Shutdown));
        Serve.Client.close c
    | Error _ -> ());
    Thread.join t
  in
  Fun.protect ~finally (fun () -> f listen)

let serve_connect listen =
  match Serve.Client.connect listen with
  | Ok c -> c
  | Error e -> failwith ("serve bench: connect: " ^ e)

let serve_solve c id =
  match Serve.Client.request c (serve_solve_request id) with
  | Ok ({ Api.Response.payload = Api.Response.Sat _; _ } as r) -> r
  | Ok r ->
      failwith
        (Fmt.str "serve bench: unexpected %s response"
           (Api.Response.payload_name r.Api.Response.payload))
  | Error e -> failwith ("serve bench: " ^ e)

let serve_report () =
  hr "Serve harness — resident daemon vs fresh-daemon costs";
  let mean = function
    | [] -> 0
    | xs -> List.fold_left ( + ) 0 xs / List.length xs
  in
  (* cold: a brand-new daemon (fresh pool, empty worker store) per
     request; elapsed_us is the in-handler time, the wall clock also
     pays bind + spawn + join *)
  let cold_iters = 5 in
  let cold_us = ref [] in
  let (), cold_seconds =
    time_once (fun () ->
        for i = 1 to cold_iters do
          serve_with_daemon (fun listen ->
              let c = serve_connect listen in
              let r = serve_solve c (Printf.sprintf "cold%d" i) in
              cold_us :=
                r.Api.Response.obs.Api.Response.elapsed_us :: !cold_us;
              Serve.Client.close c)
        done)
  in
  let cold_mean_us = mean !cold_us in
  Fmt.pr
    "cold: %d daemon starts, mean in-handler %d us (%.3f s wall incl. spawn)@."
    cold_iters cold_mean_us cold_seconds;
  record
    [
      ("name", Json.String "serve/cold");
      ("requests", Json.Int cold_iters);
      ("seconds", Json.Float cold_seconds);
      ("mean_request_us", Json.Int cold_mean_us);
    ];
  (* warm and concurrent share one resident daemon *)
  serve_with_daemon (fun listen ->
      let c = serve_connect listen in
      let first = serve_solve c "first" in
      let warm_iters = 32 in
      let warms =
        List.init warm_iters (fun i ->
            serve_solve c (Printf.sprintf "warm%d" i))
      in
      Serve.Client.close c;
      let warm_mean_us =
        mean
          (List.map
             (fun (r : Api.Response.t) -> r.obs.Api.Response.elapsed_us)
             warms)
      in
      let warm_hits =
        List.fold_left
          (fun acc (r : Api.Response.t) ->
            acc + r.obs.Api.Response.intern_hits)
          0 warms
      in
      let speedup =
        float_of_int cold_mean_us /. float_of_int (max 1 warm_mean_us)
      in
      Fmt.pr
        "warm: first %d us, then %d solves at mean %d us — %.1fx vs cold \
         (%d intern hits)@."
        first.Api.Response.obs.Api.Response.elapsed_us warm_iters warm_mean_us
        speedup warm_hits;
      record
        [
          ("name", Json.String "serve/warm");
          ("requests", Json.Int warm_iters);
          ("cold_request_us", Json.Int cold_mean_us);
          ("warm_request_us", Json.Int warm_mean_us);
          ("speedup_warm_vs_cold", Json.Float speedup);
          ("intern_hits", Json.Int warm_hits);
        ];
      (* concurrent: four client threads against the same warm daemon *)
      let conns = 4 and per = 16 in
      let total = conns * per in
      let latencies_ns = Array.make total 0 in
      let worker t =
        let c = serve_connect listen in
        for i = 0 to per - 1 do
          let t0 = Telemetry.Clock.now_ns () in
          ignore (serve_solve c (Printf.sprintf "t%d-%d" t i));
          latencies_ns.((t * per) + i) <-
            Int64.to_int (Int64.sub (Telemetry.Clock.now_ns ()) t0)
        done;
        Serve.Client.close c
      in
      let (), conc_seconds =
        time_once (fun () ->
            List.iter Thread.join
              (List.init conns (fun t -> Thread.create worker t)))
      in
      Array.sort compare latencies_ns;
      let pct p =
        float_of_int latencies_ns.(min (total - 1) (total * p / 100)) /. 1e6
      in
      let throughput = float_of_int total /. conc_seconds in
      Fmt.pr
        "concurrent: %d conns x %d reqs in %.3f s — %.0f req/s, p50 %.2f ms, \
         p99 %.2f ms@."
        conns per conc_seconds throughput (pct 50) (pct 99);
      record
        [
          ("name", Json.String "serve/concurrent");
          ("connections", Json.Int conns);
          ("requests", Json.Int total);
          ("seconds", Json.Float conc_seconds);
          ("throughput_rps", Json.Float throughput);
          ("p50_ms", Json.Float (pct 50));
          ("p99_ms", Json.Float (pct 99));
        ]);
  Fmt.pr "(one daemon held across the warm and concurrent arms: its pool@.";
  Fmt.pr " workers keep domain-local stores warm across requests, which is@.";
  Fmt.pr " the entire case for residency over spawn-per-request.)@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one kernel per experiment               *)

let bechamel_tests =
  let open Bechamel in
  Test.make_grouped ~name:"dprle"
    [
      Test.make ~name:"fig1/solve_motivating" (Staged.stage fig1_solve);
      Test.make ~name:"fig4/concat_intersect" (Staged.stage fig4_run);
      Test.make ~name:"fig9/solve_cigroup" (Staged.stage fig9_solve);
      Test.make ~name:"fig11/generate_eve"
        (Staged.stage (fun () ->
             Corpus.Fig11.generate (List.hd Corpus.Fig11.apps)));
      Test.make ~name:"fig12/solve_ax_help"
        (Staged.stage (fun () ->
             solve_row
               (List.find
                  (fun r -> r.Corpus.Fig12.name = "ax_help")
                  Corpus.Fig12.rows)));
      Test.make ~name:"sec35/ci_q16" (Staged.stage (fun () -> sec35_single 16));
      Test.make ~name:"extension/sanitizer_addslashes"
        (Staged.stage (fun () -> sanitizer_solve (List.assoc "addslashes" sanitizer_programs)));
      (* inputs are prepared outside the staged closures so both
         variants time only the concat-intersect call *)
      (let c1, c2, c3 = ablation_inputs 8 in
       Test.make ~name:"ablation/ci_bloated_k8"
         (Staged.stage (fun () -> ablation_run c1 c2 c3)));
      (let c1, c2, c3 = ablation_inputs 8 in
       let c1 = Automata.Lang.compact c1
       and c2 = Automata.Lang.compact c2
       and c3 = Automata.Lang.compact c3 in
       Test.make ~name:"ablation/ci_minimized_k8"
         (Staged.stage (fun () -> ablation_run c1 c2 c3)));
    ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  hr "Bechamel micro-benchmarks (OLS fit per run)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] bechamel_tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let ns =
          match Analyze.OLS.estimates result with
          | Some (est :: _) -> est
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
  in
  List.iter
    (fun (name, ns) ->
      if ns >= 1e9 then Fmt.pr "%-36s %12.3f s/run@." name (ns /. 1e9)
      else if ns >= 1e6 then Fmt.pr "%-36s %12.3f ms/run@." name (ns /. 1e6)
      else Fmt.pr "%-36s %12.3f us/run@." name (ns /. 1e3))
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

(* [--json [PATH]]: PATH defaults to BENCH_dprle.json when omitted or
   when the next token is another flag. *)
let json_path () =
  let argv = Array.to_list Sys.argv in
  let rec scan = function
    | [] -> None
    | "--json" :: rest -> (
        match rest with
        | path :: _ when String.length path > 0 && path.[0] <> '-' -> Some path
        | _ -> Some "BENCH_dprle.json")
    | _ :: rest -> scan rest
  in
  scan argv

(* [--events FILE]: JSONL event log, one record per experiment. *)
let events_path () =
  let rec scan = function
    | [] -> None
    | "--events" :: path :: _ when String.length path > 0 && path.[0] <> '-' ->
        Some path
    | _ :: rest -> scan rest
  in
  scan (Array.to_list Sys.argv)

(* ------------------------------------------------------------------ *)
(* [--diff OLD NEW]: check two bench JSON documents (see
   {!Benchdiff}) instead of running the experiments.  Exit 0 = clean,
   1 = hard findings (named on stdout), 2 = usage/parse error. *)

let diff_main args =
  let wall_warn_only = List.mem "--wall-warn-only" args in
  let is_path a = a <> "" && a.[0] <> '-' in
  match List.filter (fun a -> a <> "--diff" && a <> "--wall-warn-only") args with
  | [ old_path; new_path ] when is_path old_path && is_path new_path -> (
      let load path =
        match
          Json.of_string (In_channel.with_open_text path In_channel.input_all)
        with
        | Ok doc -> Ok doc
        | Error msg -> Error (Fmt.str "%s: %s" path msg)
        | exception Sys_error msg -> Error msg
      in
      let report =
        let ( let* ) = Result.bind in
        let* old_doc = load old_path in
        let* new_doc = load new_path in
        Benchdiff.run ~cores:(Domain.recommended_domain_count ())
          ~wall_warn_only ~old_doc ~new_doc
      in
      match report with
      | Ok report ->
          Fmt.pr "%a" Benchdiff.pp_report report;
          if Benchdiff.hard_count report > 0 then 1 else 0
      | Error msg ->
          Fmt.epr "error: %s@." msg;
          2)
  | _ ->
      Fmt.epr "usage: dprle-bench --diff OLD.json NEW.json [--wall-warn-only]@.";
      2

let run_experiments () =
  let json = json_path () in
  Fmt.pr "DPRLE benchmark harness — every table and figure of the paper@.";
  experiment "fig1/motivating" fig1_report;
  experiment "fig4/concat_intersect" fig4_report;
  experiment "fig9/cigroup" fig9_report;
  experiment "fig11/corpus" fig11_report;
  experiment "fig12/solving" fig12_report;
  experiment "sec35/complexity" sec35_report;
  experiment "ablation/minimization" ablation_report;
  (* wrapper entry "minimize/chain"; each length records itself as
     minimize/chain/N *)
  experiment "minimize/chain" minimize_chain_report;
  experiment "parallel/engine" parallel_report;
  (* wrapper entry is "parallel/pool"; the arm comparison itself is
     recorded as "parallel/pool_reuse" (same split as static_prune) *)
  experiment "parallel/pool" pool_reuse_report;
  experiment "static_prune/ablation" static_prune_report;
  experiment "analyze/ablation" analyze_report;
  experiment "extension/sanitizers" sanitizers_report;
  experiment "cache_ablation" cache_ablation_report;
  experiment "observability" observability_report;
  (* wrapper entry "serve/harness"; the three arms record themselves
     as serve/cold, serve/warm, serve/concurrent *)
  experiment "serve/harness" serve_report;
  if json = None then run_bechamel ()
  else experiment "bechamel/microbench" run_bechamel;
  Option.iter write_json json;
  Fmt.pr "@.done.@."

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--diff" args then exit (diff_main args)
  else Telemetry.Events.with_sink (events_path ()) run_experiments
