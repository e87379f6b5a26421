(* The interned language store: semantics preservation against the
   reference oracles, LRU/memo mechanics, disabled-mode passthrough,
   and two end-to-end tests showing the cache is load-bearing for the
   solver and the symbolic executor. *)

open Helpers
module Nfa = Automata.Nfa
module Ops = Automata.Ops
module Store = Automata.Store
module Metrics = Telemetry.Metrics

(* a freshly compiled machine, as the store's representative for it *)
let regex s = Regex.Compile.to_nfa (Regex.Parser.parse_exn s)

(* Tests below toggle global store state; always restore. *)
let with_store_reset f =
  Fun.protect
    ~finally:(fun () ->
      Store.set_enabled true;
      Store.clear ())
    f

let nfa_pair = QCheck2.Gen.pair nfa_gen nfa_gen

let prop_tests =
  [
    qtest ~count:150 "interning preserves the language" nfa_gen (fun m ->
        Kernel_reference.equal m (Store.nfa (Store.intern m)));
    qtest ~count:150 "equal handle ids imply equal languages" nfa_pair
      (fun (m1, m2) ->
        Store.id (Store.intern m1) <> Store.id (Store.intern m2)
        || Kernel_reference.equal m1 m2);
    qtest ~count:150 "store subset/equal agree with the references" nfa_pair
      (fun (m1, m2) ->
        let h1 = Store.intern m1 and h2 = Store.intern m2 in
        Store.subset h1 h2 = Kernel_reference.subset m1 m2
        && Store.equal h1 h2 = Kernel_reference.equal m1 m2);
    qtest ~count:150 "store counterexamples are valid" nfa_pair
      (fun (m1, m2) ->
        let h1 = Store.intern m1 and h2 = Store.intern m2 in
        match Store.counterexample h1 h2 with
        | None -> Kernel_reference.subset m1 m2
        | Some w -> Nfa.accepts m1 w && not (Nfa.accepts m2 w));
    qtest ~count:100 "cached binary ops match the raw constructions"
      nfa_pair
      (fun (m1, m2) ->
        let h1 = Store.intern m1 and h2 = Store.intern m2 in
        Kernel_reference.equal
          (Store.nfa (Store.inter_lang h1 h2))
          (Ops.inter_lang m1 m2)
        && Kernel_reference.equal
             (Store.nfa (Store.concat_lang h1 h2))
             (Ops.concat_lang m1 m2)
        && Kernel_reference.equal
             (Store.nfa (Store.union_lang h1 h2))
             (Ops.union_lang m1 m2));
    qtest ~count:150 "memoized unary ops match their definitions" nfa_gen
      (fun m ->
        let h = Store.intern m in
        Store.is_empty h = Kernel_reference.is_empty_lang m
        && Kernel_reference.equal (Store.minimized h) m
        && Kernel_reference.equal (Automata.Dfa.to_nfa (Store.min_dfa h)) m);
  ]

let memo_tests =
  [
    test "find_or_compute computes once per key" (fun () ->
        with_store_reset @@ fun () ->
        let memo : int Store.Memo.t = Store.Memo.create ~op:"test.once" in
        let runs = ref 0 in
        let get k =
          Store.Memo.find_or_compute memo ~key:[ k ] (fun () ->
              incr runs;
              k * 7)
        in
        check_int "first" 21 (get 3);
        check_int "second" 21 (get 3);
        check_int "other key" 35 (get 5);
        check_int "computed twice total" 2 !runs);
    test "intern hits on a re-built machine" (fun () ->
        with_store_reset @@ fun () ->
        let mk () = regex "ab(c|d)*" in
        let h1 = Store.intern (mk ()) in
        let h2 = Store.intern (mk ()) in
        check_int "same id" (Store.id h1) (Store.id h2));
    test "interning ignores state numbering and dead states" (fun () ->
        with_store_reset @@ fun () ->
        (* same machine built twice: once plainly, once with junk
           states and a different allocation order *)
        let chain b s f =
          let m1 = Nfa.Builder.add_state b in
          let m2 = Nfa.Builder.add_state b in
          Nfa.Builder.add_trans b s (Charset.singleton 'x') m1;
          Nfa.Builder.add_trans b m1 (Charset.singleton 'y') m2;
          Nfa.Builder.add_trans b m2 (Charset.singleton 'z') f
        in
        let plain =
          let b = Nfa.Builder.create () in
          let s = Nfa.Builder.add_state b in
          let f = Nfa.Builder.add_state b in
          chain b s f;
          Nfa.Builder.finish b ~start:s ~final:f
        in
        let noisy =
          let b = Nfa.Builder.create () in
          let junk = Nfa.Builder.add_states b 3 in
          let f = Nfa.Builder.add_state b in
          let s = Nfa.Builder.add_state b in
          chain b s f;
          Nfa.Builder.add_trans b junk (Charset.singleton 'q') (junk + 1);
          Nfa.Builder.finish b ~start:s ~final:f
        in
        check_int "same id" (Store.id (Store.intern plain))
          (Store.id (Store.intern noisy)));
    test "LRU eviction past the fixed capacity" (fun () ->
        with_store_reset @@ fun () ->
        let capacity = 4096 in
        let memo : int Store.Memo.t = Store.Memo.create ~op:"test.lru" in
        let runs = ref 0 in
        let get k =
          Store.Memo.find_or_compute memo ~key:[ k ] (fun () ->
              incr runs;
              k)
        in
        let before = Metrics.Snapshot.of_default () in
        for k = 1 to capacity + 40 do
          ignore (get k)
        done;
        let diff =
          Metrics.Snapshot.diff ~after:(Metrics.Snapshot.of_default ()) ~before
        in
        check_int "all computed" (capacity + 40) !runs;
        check_bool "evictions recorded" true
          (Metrics.Snapshot.counter_total diff "store.opcache.evict" > 0);
        (* a hot key kept hot survives; ancient keys were dropped *)
        ignore (get (capacity + 40));
        check_int "recent key cached" (capacity + 40) !runs;
        ignore (get 1);
        check_int "old key recomputed" (capacity + 41) !runs);
    test "disabled store is a passthrough" (fun () ->
        with_store_reset @@ fun () ->
        Store.set_enabled false;
        let m = regex "a+" in
        let h1 = Store.intern m and h2 = Store.intern m in
        check_bool "fresh handles" true (Store.id h1 <> Store.id h2);
        check_bool "same machine back" true (Store.nfa h1 == m);
        let memo : int Store.Memo.t = Store.Memo.create ~op:"test.disabled" in
        let runs = ref 0 in
        let get () =
          Store.Memo.find_or_compute memo ~key:[ 1 ] (fun () ->
              incr runs;
              0)
        in
        ignore (get ());
        ignore (get ());
        check_int "recomputed every call" 2 !runs);
  ]

(* ------------------------------------------------------------------ *)
(* Cost gate *)

let timer_count snap name labels =
  match Metrics.Snapshot.timer_stat ~labels snap name with
  | Some s -> s.Metrics.Snapshot.count
  | None -> 0

let gate_tests =
  [
    test "size gate: tiny machines are keyed" (fun () ->
        with_store_reset @@ fun () ->
        (* at most 256 states: keyed by the canonical form, so two
           separate builds share an id and memos over them hit *)
        let tiny () = Nfa.of_word "a" in
        let h1 = Store.intern (tiny ()) and h2 = Store.intern (tiny ()) in
        check_int "separate builds share" (Store.id h1) (Store.id h2);
        let other = Store.intern (Nfa.of_word "b") in
        ignore (Store.union_lang h1 other);
        let before = Metrics.Snapshot.of_default () in
        ignore (Store.union_lang h2 (Store.intern (Nfa.of_word "b")));
        let diff =
          Metrics.Snapshot.diff ~after:(Metrics.Snapshot.of_default ()) ~before
        in
        check_int "memo hits on the second call" 1
          (Metrics.Snapshot.counter_value
             ~labels:[ ("op", "union_lang") ]
             diff "store.opcache.hit"));
    test "size gate: huge machines are not keyed" (fun () ->
        with_store_reset @@ fun () ->
        (* over 256 states: no canonical key; only the same physical
           machine shares *)
        let word = String.make 256 'w' in
        let m = Nfa.of_word word in
        check_bool "over the ceiling" true (Nfa.num_states m > 256);
        let before = Metrics.Snapshot.of_default () in
        let h3 = Store.intern m and h4 = Store.intern m in
        let h5 = Store.intern (Nfa.of_word word) in
        let diff =
          Metrics.Snapshot.diff ~after:(Metrics.Snapshot.of_default ()) ~before
        in
        check_int "no canonical key paid" 0
          (timer_count diff "store.ledger.key" [ ("op", "intern") ]);
        check_int "physically equal repeat shares" (Store.id h3) (Store.id h4);
        check_bool "structurally equal copy does not" true
          (Store.id h3 <> Store.id h5);
        check_int "skips counted" 2
          (Metrics.Snapshot.counter_value
             ~labels:[ ("op", "intern") ]
             diff "store.gate.skip"));
    test "of_word and top serve repeats without re-keying" (fun () ->
        with_store_reset @@ fun () ->
        let h1 = Store.of_word "engine_word" in
        let t1 = Store.top () in
        let before = Metrics.Snapshot.of_default () in
        let h2 = Store.of_word "engine_word" in
        let t2 = Store.top () in
        let diff =
          Metrics.Snapshot.diff ~after:(Metrics.Snapshot.of_default ()) ~before
        in
        check_int "same word handle" (Store.id h1) (Store.id h2);
        check_int "same top handle" (Store.id t1) (Store.id t2);
        (* the word repeat is a string-hash hit and the Σ* repeat a
           slot hit: no canonical key on either path *)
        check_int "no keys paid" 0
          (timer_count diff "store.ledger.key" [ ("op", "intern") ]));
    test "compacted is memoized and idempotent" (fun () ->
        with_store_reset @@ fun () ->
        let h = Dprle.System.const_of_regex "ab(c|d)*e" in
        let c1 = Store.compacted h in
        let before = Metrics.Snapshot.of_default () in
        let c2 = Store.compacted h in
        let c3 = Store.compacted c1 in
        let diff =
          Metrics.Snapshot.diff ~after:(Metrics.Snapshot.of_default ()) ~before
        in
        check_int "slot hit" (Store.id c1) (Store.id c2);
        check_int "fixed point" (Store.id c1) (Store.id c3);
        check_int "no re-keying on repeats" 0
          (timer_count diff "store.ledger.key" [ ("op", "intern") ]));
    test "physically equal machines intern without a second key" (fun () ->
        with_store_reset @@ fun () ->
        let m = regex "xy(z|w)*" in
        let h1 = Store.intern m in
        let before = Metrics.Snapshot.of_default () in
        let h2 = Store.intern m in
        let diff =
          Metrics.Snapshot.diff ~after:(Metrics.Snapshot.of_default ()) ~before
        in
        check_int "same handle" (Store.id h1) (Store.id h2);
        check_int "pointer hit pays no key" 0
          (timer_count diff "store.ledger.key" [ ("op", "intern") ]);
        check_int "counted as an intern hit" 1
          (Metrics.Snapshot.counter_value diff "store.intern.hit"));
  ]

(* ------------------------------------------------------------------ *)
(* Load-bearing end to end *)

let fig1_system () =
  Dprle.System.make_exn
    ~consts:
      [
        ("filter", Dprle.System.const_of_pattern "/[\\d]+$/");
        ("prefix", Dprle.System.const_of_word "nid_");
        ("unsafe", Dprle.System.const_of_pattern "/'/");
      ]
    ~constraints:
      [
        { Dprle.System.lhs = Var "v1"; rhs = "filter" };
        { Dprle.System.lhs = Concat (Const "prefix", Var "v1"); rhs = "unsafe" };
      ]

let utopia_program =
  {|
$newsid = input("posted_newsid");
if (!preg_match(/[\d]+$/, $newsid)) {
  echo "Invalid article news ID.";
  exit;
}
$newsid = "nid_" . $newsid;
query("SELECT * FROM news WHERE newsid=" . $newsid);
|}

let endtoend_tests =
  [
    test "repeated solves hit the op-cache" (fun () ->
        with_store_reset @@ fun () ->
        let solve () =
          match run_solver (fig1_system ()) with
          | Dprle.Solver.Sat (_ :: _) -> ()
          | _ -> Alcotest.fail "expected sat"
        in
        solve ();
        let before = Metrics.Snapshot.of_default () in
        solve ();
        let diff =
          Metrics.Snapshot.diff ~after:(Metrics.Snapshot.of_default ()) ~before
        in
        check_bool "second solve hits" true
          (Metrics.Snapshot.counter_total diff "store.opcache.hit" > 0));
    test "symbolic execution runs warm by default" (fun () ->
        with_store_reset @@ fun () ->
        let program = Webapp.Lang_parser.parse_exn utopia_program in
        let before = Metrics.Snapshot.of_default () in
        (match
           Webapp.Symexec.first_exploit
             ~attack:Webapp.Attack.contains_quote program
         with
        | Some inputs ->
            check_bool "exploit constrains the input" true
              (List.mem_assoc "posted_newsid" inputs)
        | None -> Alcotest.fail "expected an exploit");
        let diff =
          Metrics.Snapshot.diff ~after:(Metrics.Snapshot.of_default ()) ~before
        in
        check_bool "op-cache hits during symexec" true
          (Metrics.Snapshot.counter_total diff "store.opcache.hit" > 0);
        check_bool "intern hits during symexec" true
          (Metrics.Snapshot.counter_total diff "store.intern.hit" > 0));
    test "--no-cache semantics: disabled solve agrees with cached" (fun () ->
        with_store_reset @@ fun () ->
        let run () =
          match run_solver (fig1_system ()) with
          | Dprle.Solver.Sat assignments ->
              List.map Dprle.Assignment.witness assignments
          | Dprle.Solver.Unsat r ->
              Alcotest.failf "unsat: %s"
                (Dprle.Solver.unsat_message r.Dprle.Solver.reason)
        in
        let cached = run () in
        Store.set_enabled false;
        let uncached = run () in
        check_bool "same witnesses" true (cached = uncached));
  ]

(* ------------------------------------------------------------------ *)
(* Text table: a warm store answers a repeated constant by its text *)

let text_system =
  "let filter = /[\\d]+$/;\nlet prefix = \"nid_\";\nlet unsafe = /'/;\n\
   let bound = /^[a-z]+$/;\nv1 <= filter;\nprefix . v1 <= unsafe;\nv2 <= bound;\n"

let parse_consts () =
  List.map snd (Dprle.System.constants (Dprle.Sysparse.parse_exn text_system))

let intern_keys diff = timer_count diff "store.ledger.key" [ ("op", "intern") ]

let text_tests =
  [
    test "a second parse keys nothing and shares every handle" (fun () ->
        with_store_reset @@ fun () ->
        let first = parse_consts () in
        let before = Metrics.Snapshot.of_default () in
        let second = parse_consts () in
        let diff =
          Metrics.Snapshot.diff ~after:(Metrics.Snapshot.of_default ()) ~before
        in
        check_int "no canonical key" 0 (intern_keys diff);
        check_int "each constant an intern hit" (List.length first)
          (Metrics.Snapshot.counter_value diff "store.intern.hit");
        check_bool "physically equal handles" true (List.for_all2 ( == ) first second));
    test "a disabled store parses to fresh handles" (fun () ->
        with_store_reset @@ fun () ->
        Store.set_enabled false;
        let first = parse_consts () and second = parse_consts () in
        check_bool "fresh ids" true
          (List.for_all2 (fun a b -> Store.id a <> Store.id b) first second));
    test "after clear the constants get new ids" (fun () ->
        with_store_reset @@ fun () ->
        let first = parse_consts () in
        Store.clear ();
        let second = parse_consts () in
        check_bool "new ids" true
          (List.for_all2 (fun a b -> Store.id a <> Store.id b) first second));
    test "each domain keeps its own text table" (fun () ->
        with_store_reset @@ fun () ->
        let mine = List.map Store.id (parse_consts ()) in
        let theirs =
          Domain.join
            (Domain.spawn (fun () ->
                 let a = List.map Store.id (parse_consts ()) in
                 let b = List.map Store.id (parse_consts ()) in
                 (a, b)))
        in
        check_bool "shared within the worker" true (fst theirs = snd theirs);
        check_bool "not with the parent" true
          (List.for_all2 ( <> ) mine (fst theirs));
        check_bool "the parent's table is intact" true
          (mine = List.map Store.id (parse_consts ())));
    test "a handle built from a word says so" (fun () ->
        with_store_reset @@ fun () ->
        check_bool "literal" true (Store.word (Store.of_word "nid_") = Some "nid_");
        check_bool "pattern" true
          (Store.word (Dprle.System.const_of_pattern "/^nid_$/") = None);
        Store.set_enabled false;
        check_bool "literal, store disabled" true
          (Store.word (Store.of_word "x") = Some "x"));
  ]

(* ------------------------------------------------------------------ *)
(* Canonical key against the serializer it replaced *)

(* [m] with its states renumbered by a random permutation *)
let renumbered_gen =
  let open QCheck2.Gen in
  let* m = nfa_gen in
  let n = Nfa.num_states m in
  let* perm = shuffle_a (Array.init n Fun.id) in
  let b = Nfa.Builder.create () in
  let first = Nfa.Builder.add_states b n in
  let img q = first + perm.(q) in
  List.iter
    (fun q ->
      List.iter (fun (cs, d) -> Nfa.Builder.add_trans b (img q) cs (img d))
        (Nfa.char_transitions m q);
      List.iter (fun d -> Nfa.Builder.add_eps b (img q) (img d))
        (Nfa.eps_transitions_from m q))
    (Nfa.states m);
  return (m, Nfa.Builder.finish b ~start:(img (Nfa.start m)) ~final:(img (Nfa.final m)))

(* one state fanning out over more edges than the short-list sort
   handles, many of them sharing a label *)
let fan_gen =
  let open QCheck2.Gen in
  let* n = int_range 2 6 in
  let* edges =
    list_size (int_range 17 40)
      (pair (oneofl [ 'a'; 'b'; 'c' ]) (int_bound (n - 1)))
  in
  let b = Nfa.Builder.create () in
  let first = Nfa.Builder.add_states b n in
  List.iter
    (fun (c, d) -> Nfa.Builder.add_trans b first (Charset.singleton c) (first + d))
    edges;
  for q = 1 to n - 1 do
    Nfa.Builder.add_trans b (first + q) (Charset.singleton 'z') (first + 1)
  done;
  return (Nfa.Builder.finish b ~start:first ~final:(first + 1))

let key_tests =
  let same_relation (a, b) =
    (Store.canonical_key a = Store.canonical_key b)
    = (Key_reference.canonical_key a = Key_reference.canonical_key b)
  in
  [
    qtest ~count:300 "canonical key writes the reference serializer's bytes"
      nfa_gen (fun m -> Store.canonical_key m = Key_reference.canonical_key m);
    qtest ~count:100 "canonical key on wide fan-outs" fan_gen (fun m ->
        Store.canonical_key m = Key_reference.canonical_key m);
    qtest ~count:300 "canonical key relates renumbered copies as the reference"
      renumbered_gen same_relation;
    qtest ~count:300 "canonical key relates random pairs as the reference"
      nfa_pair same_relation;
  ]

(* A gci temporary's emptiness is a reachability question in its root *)
let reach_tests =
  let open QCheck2.Gen in
  let gen =
    let* m = nfa_gen in
    let n = Nfa.num_states m in
    let* entry = int_bound (n - 1) in
    let* exit_ = int_bound (n - 1) in
    return (m, entry, exit_)
  in
  [
    qtest ~count:300 "exit reachable from entry iff the induced slice is non-empty"
      gen (fun (m, entry, exit_) ->
        Nfa.Flags.mem (Nfa.reachable_flags m entry) exit_
        = not
            (Nfa.is_empty_lang
               (Nfa.induce_from_final (Nfa.induce_from_start m entry) exit_)));
  ]

let suite =
  [
    ("store:props", prop_tests);
    ("store:text", text_tests);
    ("store:key", key_tests);
    ("store:reach", reach_tests);
    ("store:memo", memo_tests);
    ("store:gate", gate_tests);
    ("store:endtoend", endtoend_tests);
  ]
