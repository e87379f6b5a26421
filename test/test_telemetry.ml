(* Unit tests for the telemetry subsystem: span-tree shape and
   duration bookkeeping under a deterministic clock, counter/histogram
   labeling and snapshot diffs, and the diff-based scoping of the
   automata.* construction counters that makes nested solve reports
   independent. *)

open Helpers
module Span = Telemetry.Span
module Metrics = Telemetry.Metrics
module Json = Telemetry.Json

(* A clock that advances 1 ms per reading makes every span's duration
   a known multiple of the readings taken inside it. *)
let with_fake_clock f =
  let t = ref 0.0 in
  Telemetry.Clock.set_source (fun () ->
      t := !t +. 0.001;
      !t);
  Fun.protect ~finally:Telemetry.Clock.use_default_source f

let span_tests =
  [
    test "with_span is a passthrough when disabled" (fun () ->
        check_bool "disabled" false (Span.enabled ());
        let r = Span.with_span ~name:"ignored" (fun () -> 41 + 1) in
        check_int "result" 42 r;
        check_bool "still disabled" false (Span.enabled ()));
    test "collect builds the nested tree in execution order" (fun () ->
        with_fake_clock @@ fun () ->
        let result, root =
          Span.collect ~name:"root" (fun () ->
              let a =
                Span.with_span ~name:"a" (fun () ->
                    Span.with_span ~name:"a1" (fun () -> ());
                    "a-result")
              in
              Span.with_span ~name:"b" (fun () -> ());
              a)
        in
        check_string "result" "a-result" result;
        check_string "root name" "root" (Span.name root);
        check_int "two children" 2 (List.length (Span.children root));
        let a, b =
          match Span.children root with [ x; y ] -> (x, y) | _ -> assert false
        in
        check_string "first child" "a" (Span.name a);
        check_string "second child" "b" (Span.name b);
        check_int "grandchild" 1 (List.length (Span.children a));
        check_string "grandchild name" "a1"
          (Span.name (List.hd (Span.children a))));
    test "durations are non-negative and nest monotonically" (fun () ->
        with_fake_clock @@ fun () ->
        let (), root =
          Span.collect ~name:"root" (fun () ->
              Span.with_span ~name:"child" (fun () ->
                  Span.with_span ~name:"grandchild" (fun () -> ())))
        in
        let child = List.hd (Span.children root) in
        let grandchild = List.hd (Span.children child) in
        List.iter
          (fun s ->
            check_bool
              (Span.name s ^ " duration positive")
              true
              (Int64.compare (Span.duration_ns s) 0L > 0))
          [ root; child; grandchild ];
        check_bool "child within root" true
          (Int64.compare (Span.duration_ns child) (Span.duration_ns root) <= 0);
        check_bool "grandchild within child" true
          (Int64.compare (Span.duration_ns grandchild) (Span.duration_ns child)
          <= 0));
    test "attrs and add_attr land on the right span" (fun () ->
        let (), root =
          Span.collect ~name:"root" (fun () ->
              Span.with_span ~name:"phase" ~attrs:[ ("q", `Int 5) ] (fun () ->
                  Span.add_attr "cuts" (`Int 3));
              Span.add_attr "outcome" (`String "sat"))
        in
        let phase = List.hd (Span.children root) in
        check_bool "declared attr" true (List.mem ("q", `Int 5) (Span.attrs phase));
        check_bool "mid-phase attr" true
          (List.mem ("cuts", `Int 3) (Span.attrs phase));
        check_bool "root attr" true
          (List.mem ("outcome", `String "sat") (Span.attrs root)));
    test "an exception still closes the span stack" (fun () ->
        (try
           ignore
             (Span.collect ~name:"root" (fun () ->
                  Span.with_span ~name:"doomed" (fun () -> failwith "boom")))
         with Failure _ -> ());
        check_bool "tracing off again" false (Span.enabled ()));
    test "chrome export is one complete event per span" (fun () ->
        with_fake_clock @@ fun () ->
        let (), root =
          Span.collect ~name:"root" (fun () ->
              Span.with_span ~name:"inner" ~attrs:[ ("k", `String "v\"q") ]
                (fun () -> ()))
        in
        match Span.to_chrome_json root with
        | Json.Obj [ ("traceEvents", Json.List events); _ ] ->
            check_int "events" 2 (List.length events);
            let json = Span.to_chrome_string root in
            check_bool "escaped attr" true
              (let needle = {|"k":"v\"q"|} in
               let rec find i =
                 i + String.length needle <= String.length json
                 && (String.sub json i (String.length needle) = needle
                    || find (i + 1))
               in
               find 0)
        | _ -> Alcotest.fail "unexpected chrome JSON shape");
  ]

let metrics_tests =
  [
    test "counter labels address independent series" (fun () ->
        let r = Metrics.create_registry () in
        let c = Metrics.Counter.make ~registry:r "test.hits" in
        Metrics.Counter.incr c 1;
        Metrics.Counter.incr c ~labels:[ ("op", "concat") ] 2;
        Metrics.Counter.incr c ~labels:[ ("op", "product") ] 5;
        check_int "unlabeled" 1 (Metrics.Counter.value c);
        check_int "concat" 2 (Metrics.Counter.value c ~labels:[ ("op", "concat") ]);
        check_int "product" 5
          (Metrics.Counter.value c ~labels:[ ("op", "product") ]));
    test "label order does not matter" (fun () ->
        let r = Metrics.create_registry () in
        let c = Metrics.Counter.make ~registry:r "test.pairs" in
        Metrics.Counter.incr c ~labels:[ ("a", "1"); ("b", "2") ] 1;
        Metrics.Counter.incr c ~labels:[ ("b", "2"); ("a", "1") ] 1;
        check_int "same series" 2
          (Metrics.Counter.value c ~labels:[ ("a", "1"); ("b", "2") ]));
    test "same-name registration is idempotent, cross-kind is rejected"
      (fun () ->
        let r = Metrics.create_registry () in
        let c1 = Metrics.Counter.make ~registry:r "test.once" in
        let c2 = Metrics.Counter.make ~registry:r "test.once" in
        Metrics.Counter.incr c1 3;
        check_int "same underlying cell" 3 (Metrics.Counter.value c2);
        check_bool "kind clash raises" true
          (try
             ignore (Metrics.Histogram.make ~registry:r "test.once");
             false
           with Invalid_argument _ -> true));
    test "histogram buckets and labels" (fun () ->
        let r = Metrics.create_registry () in
        let h =
          Metrics.Histogram.make ~registry:r ~buckets:[| 1.; 10.; 100. |]
            "test.sizes"
        in
        List.iter
          (Metrics.Histogram.observe h ~labels:[ ("dir", "in") ])
          [ 0.5; 7.; 7.; 1000. ];
        Metrics.Histogram.observe h ~labels:[ ("dir", "out") ] 2.;
        let snap = Metrics.Snapshot.take r in
        let stat labels =
          match
            List.find_opt
              (fun (name, l, _) -> name = "test.sizes" && l = labels)
              (Metrics.Snapshot.histograms snap)
          with
          | Some (_, _, s) -> s
          | None -> Alcotest.fail "missing series"
        in
        let s_in = stat [ ("dir", "in") ] in
        check_int "in count" 4 s_in.Metrics.Snapshot.count;
        check_bool "in sum" true (abs_float (s_in.sum -. 1014.5) < 1e-9);
        check_int "le-1 bucket" 1 (List.assoc 1. s_in.buckets);
        check_int "le-10 bucket" 2 (List.assoc 10. s_in.buckets);
        check_int "le-100 bucket" 0 (List.assoc 100. s_in.buckets);
        check_int "overflow bucket" 1 (List.assoc Float.infinity s_in.buckets);
        check_int "out count" 1 (stat [ ("dir", "out") ]).count);
    test "snapshot diff isolates a region" (fun () ->
        let r = Metrics.create_registry () in
        let c = Metrics.Counter.make ~registry:r "test.work" in
        Metrics.Counter.incr c 100;
        let before = Metrics.Snapshot.take r in
        Metrics.Counter.incr c 7;
        let after = Metrics.Snapshot.take r in
        let d = Metrics.Snapshot.diff ~after ~before in
        check_int "scoped count" 7 (Metrics.Snapshot.counter_value d "test.work");
        check_int "absent counter reads zero" 0
          (Metrics.Snapshot.counter_value d "test.missing"));
    test "counter_total sums every label set" (fun () ->
        let r = Metrics.create_registry () in
        let c = Metrics.Counter.make ~registry:r "test.sum" in
        let other = Metrics.Counter.make ~registry:r "test.other" in
        Metrics.Counter.incr c 1;
        Metrics.Counter.incr c ~labels:[ ("op", "concat") ] 2;
        Metrics.Counter.incr c ~labels:[ ("op", "product") ] 5;
        Metrics.Counter.incr other 100;
        let s = Metrics.Snapshot.take r in
        check_int "all label sets" 8 (Metrics.Snapshot.counter_total s "test.sum");
        check_int "absent counter reads zero" 0
          (Metrics.Snapshot.counter_total s "test.missing"));
    test "snapshot json is well-formed" (fun () ->
        let r = Metrics.create_registry () in
        let c = Metrics.Counter.make ~registry:r "test.json" in
        Metrics.Counter.incr c ~labels:[ ("k", "v") ] 1;
        match Metrics.Snapshot.to_json (Metrics.Snapshot.take r) with
        | Json.Obj
            [
              ("counters", Json.List [ _ ]);
              ("gauges", Json.List []);
              ("histograms", Json.List []);
              ("timers", Json.List []);
            ] ->
            ()
        | _ -> Alcotest.fail "unexpected snapshot JSON shape");
    test "histogram json keeps +Inf explicit and reports max" (fun () ->
        let r = Metrics.create_registry () in
        let h =
          Metrics.Histogram.make ~registry:r ~buckets:[| 1.; 10. |] "test.tail"
        in
        Metrics.Histogram.observe h 0.5;
        (* nothing lands past the last bound, yet the overflow bucket
           must still be visible so bench --diff can watch the tail *)
        let json = Metrics.Snapshot.to_json (Metrics.Snapshot.take r) in
        let s = Json.to_string json in
        check_bool "+Inf bucket present" true
          (let needle = {|"le":"+Inf"|} in
           let rec find i =
             i + String.length needle <= String.length s
             && (String.sub s i (String.length needle) = needle || find (i + 1))
           in
           find 0);
        let snap = Metrics.Snapshot.take r in
        match Metrics.Snapshot.histograms snap with
        | [ (_, _, stat) ] -> check_bool "max recorded" true (stat.max = 0.5)
        | _ -> Alcotest.fail "expected one histogram series");
  ]

let timer_tests =
  [
    test "timer records count, total, and nested self time" (fun () ->
        with_fake_clock @@ fun () ->
        let r = Metrics.create_registry () in
        let outer = Metrics.Timer.make ~registry:r "test.outer" in
        let inner = Metrics.Timer.make ~registry:r "test.inner" in
        Metrics.Timer.time outer (fun () ->
            Metrics.Timer.time inner (fun () -> ()));
        let snap = Metrics.Snapshot.take r in
        let stat name =
          match Metrics.Snapshot.timer_stat snap name with
          | Some s -> s
          | None -> Alcotest.fail ("missing timer " ^ name)
        in
        let o = stat "test.outer" and i = stat "test.inner" in
        check_int "outer count" 1 o.Metrics.Snapshot.count;
        check_int "inner count" 1 i.Metrics.Snapshot.count;
        (* fake clock steps 1 ms per reading: inner spans 1 reading gap
           (1 ms), outer spans 3 (3 ms), so outer self = 3 - 1 = 2 ms *)
        check_bool "inner total" true (i.total_ns = 1_000_000L);
        check_bool "outer total" true (o.total_ns = 3_000_000L);
        check_bool "outer self excludes inner" true (o.self_ns = 2_000_000L);
        check_bool "inner is a leaf" true (i.self_ns = i.total_ns);
        check_bool "outer max" true (o.max_ns = o.total_ns));
    test "observe_ns books as a leaf under the open frame" (fun () ->
        with_fake_clock @@ fun () ->
        let r = Metrics.create_registry () in
        let outer = Metrics.Timer.make ~registry:r "test.outer2" in
        let ledger = Metrics.Timer.make ~registry:r "test.ledger" in
        Metrics.Timer.time outer (fun () ->
            Metrics.Timer.observe_ns ledger 500_000L);
        let snap = Metrics.Snapshot.take r in
        let o = Option.get (Metrics.Snapshot.timer_stat snap "test.outer2") in
        let l = Option.get (Metrics.Snapshot.timer_stat snap "test.ledger") in
        check_bool "ledger self = total" true (l.self_ns = l.total_ns);
        check_bool "ledger charged to outer" true
          (o.self_ns = Int64.sub o.total_ns 500_000L));
    test "an exception still closes the timer" (fun () ->
        with_fake_clock @@ fun () ->
        let r = Metrics.create_registry () in
        let t = Metrics.Timer.make ~registry:r "test.doomed" in
        (try Metrics.Timer.time t (fun () -> failwith "boom")
         with Failure _ -> ());
        check_int "recorded anyway" 1 (Metrics.Timer.count t);
        (* the frame stack must be empty again: a fresh timer books
           fully as self time *)
        Metrics.Timer.time t (fun () -> ());
        check_int "stack recovered" 2 (Metrics.Timer.count t));
    test "disabling timing skips recording entirely" (fun () ->
        let r = Metrics.create_registry () in
        let t = Metrics.Timer.make ~registry:r "test.off" in
        Metrics.set_timing_enabled false;
        Fun.protect
          ~finally:(fun () -> Metrics.set_timing_enabled true)
          (fun () ->
            let v = Metrics.Timer.time t (fun () -> 42) in
            check_int "passthrough result" 42 v;
            Metrics.Timer.observe_ns t 1_000L;
            check_int "nothing recorded" 0 (Metrics.Timer.count t)));
    test "timer snapshots diff and absorb like counters" (fun () ->
        with_fake_clock @@ fun () ->
        let r = Metrics.create_registry () in
        let t = Metrics.Timer.make ~registry:r "test.add" in
        Metrics.Timer.time t (fun () -> ());
        let before = Metrics.Snapshot.take r in
        Metrics.Timer.time t ~labels:[ ("op", "x") ] (fun () -> ());
        Metrics.Timer.time t (fun () -> ());
        let d = Metrics.Snapshot.diff ~after:(Metrics.Snapshot.take r) ~before in
        let s = Option.get (Metrics.Snapshot.timer_stat d "test.add") in
        check_int "diffed count" 1 s.Metrics.Snapshot.count;
        let s' =
          Option.get
            (Metrics.Snapshot.timer_stat d ~labels:[ ("op", "x") ] "test.add")
        in
        check_int "new series passes through" 1 s'.Metrics.Snapshot.count;
        (* absorbing the diff into a fresh registry doubles nothing *)
        let r2 = Metrics.create_registry () in
        Metrics.Snapshot.absorb ~registry:r2 d;
        Metrics.Snapshot.absorb ~registry:r2 d;
        let s2 =
          Option.get
            (Metrics.Snapshot.timer_stat (Metrics.Snapshot.take r2) "test.add")
        in
        check_int "absorb adds counts" 2 s2.Metrics.Snapshot.count;
        check_bool "absorb adds totals" true
          (s2.total_ns = Int64.mul 2L s.total_ns));
    test "a timer idle inside the region is not in the diff" (fun () ->
        with_fake_clock @@ fun () ->
        let r = Metrics.create_registry () in
        let idle = Metrics.Timer.make ~registry:r "test.idle" in
        let busy = Metrics.Timer.make ~registry:r "test.busy" in
        let h = Metrics.Histogram.make ~registry:r "test.idle_hist" in
        Metrics.Timer.time idle (fun () -> ());
        Metrics.Histogram.observe h 3.;
        let before = Metrics.Snapshot.take r in
        Metrics.Timer.time busy (fun () -> ());
        let d = Metrics.Snapshot.diff ~after:(Metrics.Snapshot.take r) ~before in
        check_bool "idle timer dropped" true
          (Metrics.Snapshot.timer_stat d "test.idle" = None);
        check_bool "idle histogram dropped" true
          (not
             (List.exists
                (fun (n, _, _) -> n = "test.idle_hist")
                (Metrics.Snapshot.histograms d)));
        check_bool "busy timer kept" true
          (Metrics.Snapshot.timer_stat d "test.busy" <> None));
    test "gauges set, add, and absorb by max" (fun () ->
        let r = Metrics.create_registry () in
        let g = Metrics.Gauge.make ~registry:r "test.depth" in
        Metrics.Gauge.set g 5;
        Metrics.Gauge.add g (-2);
        check_int "set+add" 3 (Metrics.Gauge.value g);
        let snap = Metrics.Snapshot.take r in
        let r2 = Metrics.create_registry () in
        let g2 = Metrics.Gauge.make ~registry:r2 "test.depth" in
        Metrics.Gauge.set g2 7;
        Metrics.Snapshot.absorb ~registry:r2 snap;
        check_int "absorb keeps max" 7 (Metrics.Gauge.value g2);
        Metrics.Gauge.set g2 1;
        Metrics.Snapshot.absorb ~registry:r2 snap;
        check_int "absorb raises to incoming" 3 (Metrics.Gauge.value g2));
  ]

(* The regression the registry shim exists for: a nested
   solve_with_report must not clobber an enclosing measurement, and
   back-to-back reports must count only their own work. The system is
   Fig. 1 with a second input after the first, so the solve builds
   machines and runs gci (Fig. 1 alone is bound in closed form). *)
let fig1x2 =
  Dprle.Sysparse.parse_exn
    {| let filter = /[\d]+$/;
       let prefix = "nid_";
       let unsafe = /'/;
       v1 <= filter;
       v2 <= filter;
       prefix . v1 . v2 <= unsafe; |}

(* The construction counters Automata.Ops increments, read from
   snapshots the way Dprle.Report and the bench harness read them. *)
let visited = Metrics.Counter.make "automata.states_visited"

let construction_diff before =
  let diff = Metrics.Snapshot.diff ~after:(Metrics.Snapshot.of_default ()) ~before in
  let c = Metrics.Snapshot.counter_value diff in
  (c "automata.states_visited", c "automata.products_built", c "automata.concats_built")

let stats_tests =
  [
    test "nested solve reports are independent" (fun () ->
        (* outer bracket, with some construction work of its own *)
        let before = Metrics.Snapshot.of_default () in
        Metrics.Counter.incr visited 7;
        let _, inner = Result.get_ok (Dprle.Report.solve_with_report fig1x2) in
        let outer, _, _ = construction_diff before in
        check_bool "inner counted its solve" true (inner.automata.visited > 0);
        (* the nested report scopes itself by its own diff and never
           moves anything the outer bracket reads, so the outer work
           (the 7 synthetic visits, plus the report's own census pass)
           stays on the books *)
        check_bool "outer keeps its own work plus the nested solve" true
          (outer >= 7 + inner.automata.visited));
    test "back-to-back reports count only their own work" (fun () ->
        let _, r1 = Result.get_ok (Dprle.Report.solve_with_report fig1x2) in
        let _, r2 = Result.get_ok (Dprle.Report.solve_with_report fig1x2) in
        check_int "identical solves, identical counts" r1.automata.visited
          r2.automata.visited;
        check_bool "counts are per-solve, not cumulative" true
          (r2.automata.visited < 2 * r1.automata.visited));
    test "absolute counters never decrease" (fun () ->
        let before = Metrics.Snapshot.of_default () in
        let _ = Dprle.Solver.run Dprle.Solver.Config.default fig1x2 in
        let visited, products, concats = construction_diff before in
        check_bool "visited grew" true (visited > 0);
        check_bool "products grew" true (products > 0);
        check_bool "concats grew" true (concats > 0));
  ]

(* Metrics made without [~registry] resolve their cells once per
   domain; these are declared here, in the main domain, and updated
   from spawned workers. *)
let d_counter = Metrics.Counter.make "test.domains.counter"
let d_timer = Metrics.Timer.make "test.domains.timer"
let d_hist = Metrics.Histogram.make ~buckets:[| 1.; 10. |] "test.domains.hist"

let d_totals snap =
  ( Metrics.Snapshot.counter_total snap "test.domains.counter",
    Option.fold ~none:0
      ~some:(fun (s : Metrics.Snapshot.timer_stat) -> s.count)
      (Metrics.Snapshot.timer_stat snap "test.domains.timer"),
    List.fold_left
      (fun acc (name, _, (h : Metrics.Snapshot.histogram_stat)) ->
        if name = "test.domains.hist" then acc + h.count else acc)
      0
      (Metrics.Snapshot.histograms snap) )

let domain_tests =
  [
    test "a worker's updates land in the worker's registry" (fun () ->
        Metrics.Counter.incr d_counter 1;
        let parent_before = Metrics.Snapshot.of_default () in
        let worker =
          Domain.join
            (Domain.spawn (fun () ->
                 Metrics.Counter.incr d_counter 5;
                 Metrics.Counter.incr d_counter ~labels:[ ("op", "w") ] 2;
                 Metrics.Timer.time d_timer (fun () -> ());
                 Metrics.Histogram.observe d_hist 3.;
                 Metrics.Snapshot.of_default ()))
        in
        let c, t, h = d_totals worker in
        check_int "worker counter" 7 c;
        check_int "worker timer calls" 1 t;
        check_int "worker histogram count" 1 h;
        check_int "worker unlabelled series" 5
          (Metrics.Snapshot.counter_value worker "test.domains.counter");
        let after = Metrics.Snapshot.of_default () in
        check_bool "the parent's registry did not move" true
          (d_totals (Metrics.Snapshot.diff ~after ~before:parent_before) = (0, 0, 0));
        Metrics.Snapshot.absorb worker;
        let absorbed =
          Metrics.Snapshot.diff ~after:(Metrics.Snapshot.of_default ()) ~before:parent_before
        in
        check_bool "absorb folds the worker's series in" true
          (d_totals absorbed = (7, 1, 1));
        check_int "absorbed into the labelled series" 2
          (Metrics.Counter.value d_counter ~labels:[ ("op", "w") ]));
    test "a pinned metric writes its registry from any domain" (fun () ->
        let r = Metrics.create_registry () in
        let c = Metrics.Counter.make ~registry:r "test.pinned" in
        let tm = Metrics.Timer.make ~registry:r "test.pinned.timer" in
        let hist = Metrics.Histogram.make ~registry:r "test.pinned.hist" in
        Metrics.Counter.incr c 1;
        let parent_before = Metrics.Snapshot.of_default () in
        Domain.join
          (Domain.spawn (fun () ->
               Metrics.Counter.incr c 4;
               Metrics.Counter.incr c ~labels:[ ("k", "v") ] 3;
               Metrics.Timer.time tm (fun () -> ());
               Metrics.Histogram.observe hist 2.;
               check_int "the worker's default registry saw nothing" 0
                 (Metrics.Snapshot.counter_total (Metrics.Snapshot.of_default ())
                    "test.pinned")));
        let snap = Metrics.Snapshot.take r in
        check_int "unlabelled" 5 (Metrics.Snapshot.counter_value snap "test.pinned");
        check_int "labelled" 3
          (Metrics.Snapshot.counter_value snap ~labels:[ ("k", "v") ] "test.pinned");
        check_int "timer" 1 (Metrics.Timer.count tm);
        check_int "histogram" 1
          (List.length
             (List.filter (fun (_, _, (h : Metrics.Snapshot.histogram_stat)) -> h.count = 1)
                (Metrics.Snapshot.histograms snap)));
        let diff =
          Metrics.Snapshot.diff ~after:(Metrics.Snapshot.of_default ()) ~before:parent_before
        in
        check_int "the parent's default registry saw nothing" 0
          (Metrics.Snapshot.counter_total diff "test.pinned"));
    test "Counter.total is Snapshot.counter_total" (fun () ->
        let r = Metrics.create_registry () in
        let pinned = Metrics.Counter.make ~registry:r "test.total" in
        check_int "empty" 0 (Metrics.Counter.total pinned);
        Metrics.Counter.incr pinned 1;
        Metrics.Counter.incr pinned ~labels:[ ("op", "a") ] 2;
        Metrics.Counter.incr pinned ~labels:[ ("b", "2"); ("a", "1") ] 4;
        check_int "pinned" (Metrics.Snapshot.counter_total (Metrics.Snapshot.take r) "test.total")
          (Metrics.Counter.total pinned);
        check_int "pinned value" 7 (Metrics.Counter.total pinned);
        Metrics.Counter.incr d_counter ~labels:[ ("op", "t") ] 3;
        check_int "default"
          (Metrics.Snapshot.counter_total (Metrics.Snapshot.of_default ())
             "test.domains.counter")
          (Metrics.Counter.total d_counter);
        check_int "a worker reads its own cells" 0
          (Domain.join (Domain.spawn (fun () -> Metrics.Counter.total d_counter))));
  ]

let suite =
  [
    ("telemetry:span", span_tests);
    ("telemetry:metrics", metrics_tests);
    ("telemetry:timer", timer_tests);
    ("telemetry:stats", stats_tests);
    ("telemetry:domains", domain_tests);
  ]
