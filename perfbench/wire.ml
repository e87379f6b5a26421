(* wire: dprle-wire/1 requests handled in-process on one long-lived
   store, decode → handle → encode, as [dprle batch --wire] and every
   [dprle serve] worker run them.

   The cycle holds solve (with witnesses), check and lint in equal
   thirds, the mix [dprle-loadgen] sends, over a pool of generated
   systems whose popularity is Zipf with exponent [zipf_s] (an
   assumption: there is no production traffic to fit it to).

   The seed must not pick the cost class. With a pool drawn per seed,
   five seeds moved throughput by 1.7x and peak RSS by 3.3x. So the
   pool's shapes and the cycle's order come from one fixed generator
   seed, and the workload seed varies only names: of variables, of
   constants and of requests. (A seeded letter permutation or a seeded
   order moved throughput by 15% and 23% over five seeds, against 13%
   for one seed run four times, so their effect is unresolved.) The
   cycle's multiset is fixed too: system k gets round(n·p_k) requests
   of each kind, n being the pool size and p_k its Zipf probability. *)

let pool_size = 200
let zipf_s = 1.0
let pool_shape_seed = 0x5a17

type request = { system : int; kind : [ `Solve | `Check | `Lint ]; line : string }

let kinds system =
  [| Api.Request.Solve { (Api.Request.solve_defaults ~system) with witnesses = true };
     Api.Request.Check system;
     Api.Request.Lint system |]

let encode ~id kind =
  Api.encode_request { Api.Request.id; kind; budget_ms = None; budget_states = None }

(* Requests per kind for each pool rank: Zipf weights scaled to
   [pool_size] draws, rounded by largest remainder so they sum to it. *)
let zipf_counts n =
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let exact = Array.map (fun x -> x /. total *. float_of_int n) w in
  let counts = Array.map truncate exact in
  let short = n - Array.fold_left ( + ) 0 counts in
  let by_remainder = List.init n Fun.id |> List.sort (fun a b -> compare (exact.(b) -. float_of_int counts.(b)) (exact.(a) -. float_of_int counts.(a))) in
  List.iteri (fun i k -> if i < short then counts.(k) <- counts.(k) + 1) by_remainder;
  counts

let handle line =
  let request =
    match Harness.span "api.decode" (fun () -> Api.decode_request line) with
    | Ok r -> r
    | Error e -> failwith (Fmt.str "wire: %a" Api.pp_reject e)
  in
  let response = Harness.span "serve.handler" (fun () -> Serve.Handler.handle request) in
  ignore (Harness.span "api.encode" (fun () -> Api.encode_response response) : string);
  response.Api.Response.payload

(* {1 Oracle} *)

let words_of (sys : Wiregen.t) witness =
  let missing = ref [] in
  let words =
    Array.init sys.nvars (fun i ->
        match List.assoc_opt (Wiregen.var_name sys i) witness with
        | Some w -> w
        | None ->
            missing := Wiregen.var_name sys i :: !missing;
            "")
  in
  (words, !missing)

let show_witness w = String.concat ", " (List.map (fun (v, s) -> Printf.sprintf "%s=%S" v s) w)

(* Every returned disjunct must hold: its witness is checked against
   every constraint by the benchmark's own derivative matcher.

   The solver's known defect is a spurious disjunct for a
   single-variable concatenation [v . "lit" <= R]: a language for [v]
   that misses [R]. When the analyzer has discharged a bound on [v]
   that this concatenation implies, the spurious language escapes that
   bound too, so the same disjunct also violates [v <= B] (with
   [--no-analyze] the bound holds). So a bad witness is the known
   defect, a failed operation, when it violates at least one
   single-variable concatenation and every constraint it violates has
   one of those concatenations' variables as its only variable. Any
   other failure is a wrong answer: a violated constraint on another
   variable or with two variables, a missing variable, or fewer
   witnesses than disjuncts. *)
let judge_witness (sys : Wiregen.t) w =
  match words_of sys w with
  | _, (_ :: _ as missing) ->
      Harness.Wrong (Printf.sprintf "witness {%s} lacks %s" (show_witness w) (String.concat "," missing))
  | words, [] -> (
      let violated = List.filter (fun c -> not (Wiregen.satisfies words c)) sys.constraints in
      let culprits = List.filter_map Wiregen.only_var (List.filter Wiregen.single_var_concat violated) in
      let why () =
        Printf.sprintf "spurious disjunct: witness {%s} violates %s" (show_witness w)
          (String.concat ", " (List.map (fun (c : Wiregen.constr) -> Rx.render c.rhs) violated))
      in
      let on_culprit c = match Wiregen.only_var c with Some i -> List.mem i culprits | None -> false in
      match violated with
      | [] -> Harness.Pass
      | _ when culprits <> [] && List.for_all on_culprit violated -> Harness.Known_defect (why ())
      | _ -> Harness.Wrong (why ()))

let check_witnesses (sys : Wiregen.t) ~solutions witnesses =
  let verdicts = List.map (judge_witness sys) witnesses in
  let first p = List.find_opt p verdicts in
  match first (function Harness.Wrong _ -> true | _ -> false) with
  | Some v -> v
  | None when List.length witnesses < solutions ->
      Harness.Wrong
        (Printf.sprintf "%d of %d disjuncts have no witness" (solutions - List.length witnesses) solutions)
  | None -> Option.value ~default:Harness.Pass (first (function Harness.Known_defect _ -> true | _ -> false))

(* An unsat verdict is confirmed by the bounded brute-force solver on
   the system's planted contradiction, which refutes the whole system
   on its own. The core has one variable, so words up to
   [bounded_len] stay cheap to enumerate; on a whole system of four
   variables the same search takes seconds. *)
let bounded_len = 3

let confirm_unsat (sys : Wiregen.t) =
  let core = Wiregen.make ~prefix:sys.prefix sys.planted sys.core in
  match Dprle.Bounded.solve ~max_len:bounded_len (Dprle.Sysparse.parse_exn core.text) with
  | Dprle.Bounded.Unsat_within_bound -> None
  | Dprle.Bounded.Sat w -> Some (Printf.sprintf "bounded search satisfied the core with {%s}" (show_witness w))

let check_payload (sys : Wiregen.t) ~unsat_confirmed kind payload =
  let wrong fmt = Printf.ksprintf (fun s -> Harness.Wrong s) fmt in
  match (kind, payload) with
  | _, Api.Response.Error { message; _ } -> wrong "error response: %s" message
  | (`Solve | `Check), Api.Response.Unsat _ when sys.sat -> wrong "unsat on a planted-sat system"
  | (`Solve | `Check), Api.Response.Unsat _ -> (
      match Lazy.force unsat_confirmed with None -> Harness.Pass | Some why -> wrong "unsat refuted: %s" why)
  | (`Solve | `Check), Api.Response.Sat _ when not sys.sat -> wrong "sat on a planted-unsat system"
  | `Solve, Api.Response.Sat { solutions; witnesses } -> check_witnesses sys ~solutions witnesses
  | `Check, Api.Response.Sat _ -> Harness.Pass
  | `Lint, Api.Response.Lint_report { findings } -> (
      (* on a satisfiable system no finding may claim unsatisfiability *)
      let claims_unsat (f : Api.Response.finding) =
        List.mem f.check [ "empty-rhs"; "const-contradiction"; "unsat-core" ]
      in
      match List.find_opt claims_unsat findings with
      | Some f when sys.sat -> wrong "lint [%s] on a planted-sat system: %s" f.check f.message
      | _ -> Harness.Pass)
  | _, p -> wrong "unexpected %s response" (Api.Response.payload_name p)


let inputs ~seed =
  let rng = Random.State.make [| seed |] in
  let prefix = Wiregen.word rng Rx.lower (1 + Random.State.int rng 4) in
  let shapes = Random.State.make [| pool_shape_seed |] in
  let pool = Array.map (Wiregen.rename prefix) (Wiregen.pool shapes ~size:pool_size) in
  let order =
    Array.concat
      (List.concat
         (List.mapi
            (fun k c -> List.init 3 (fun kind -> Array.make c (k, kind)))
            (Array.to_list (zipf_counts pool_size))))
  in
  Harness.shuffle shapes order;
  let requests =
    Array.mapi
      (fun pos (system, kind) ->
        { system;
          kind = [| `Solve; `Check; `Lint |].(kind);
          line = encode ~id:(Printf.sprintf "%s%d" prefix pos) (kinds pool.(system).Wiregen.text).(kind) })
      order
  in
  (pool, requests)

let texts (pool, requests) =
  Array.to_list (Array.map (fun (s : Wiregen.t) -> s.text) pool)
  @ Array.to_list (Array.map (fun r -> r.line) requests)

let setup ~seed =
  let ((pool, requests) as inputs) = inputs ~seed in
  (* warming: the store starts each timed batch after one request of
     every kind on every pool system *)
  let warm_lines =
    Array.to_list pool
    |> List.concat_map (fun (s : Wiregen.t) -> Array.to_list (Array.map (encode ~id:"warm") (kinds s.text)))
  in
  let reset () =
    Automata.Store.clear ();
    List.iter (fun l -> ignore (handle l)) warm_lines
  in
  reset ();
  let unsat_confirmed = Array.map (fun s -> lazy (confirm_unsat s)) pool in
  let run pos =
    let r = requests.(pos) in
    let sys = pool.(r.system) in
    Harness.constraints_in := !Harness.constraints_in + List.length sys.constraints;
    handle r.line
  in
  {
    Harness.name = "wire";
    cycle = Array.length requests;
    digest = Harness.md5_hex (texts inputs);
    reset;
    before_item = ignore;
    run;
    check =
      (fun pos payload ->
        let r = requests.(pos) in
        check_payload pool.(r.system) ~unsat_confirmed:unsat_confirmed.(r.system) r.kind payload);
  }
