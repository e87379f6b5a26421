(* lib/serve: admission arithmetic, Prometheus rendering, the request
   handler, and in-process end-to-end passes over a real Unix socket
   (server on a thread, blocking client in the test). *)

open Helpers
module Request = Api.Request
module Response = Api.Response
module Server = Serve.Server
module Client = Serve.Client
module Admission = Serve.Admission

let fig1 =
  "let filter = /[\\d]+$/;\n\
   let prefix = \"nid_\";\n\
   let unsafe = /'/;\n\
   v1 <= filter;\n\
   prefix . v1 <= unsafe;\n"

let req ?budget_ms ?budget_states ~id kind =
  { Request.id; kind; budget_ms; budget_states }

let solve_req ?budget_ms ?budget_states id system =
  req ?budget_ms ?budget_states ~id
    (Request.Solve (Request.solve_defaults ~system))

let payload_tag (r : Response.t) = Response.payload_name r.payload

let error_code (r : Response.t) =
  match r.payload with
  | Response.Error { code; _ } -> Api.error_code_name code
  | p -> Alcotest.failf "expected an error payload, got %s" (Response.payload_name p)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in %S" what needle hay

(* ------------------------------------------------------------------ *)
(* Admission: pure arithmetic, no sockets. *)

let admission_tests =
  [
    test "no deadline is always admitted" (fun () ->
        let a = Admission.create () in
        Admission.observe a ~service_ns:1_000_000_000L;
        match Admission.decide a ~queue_depth:1000 ~workers:1 ~budget_ms:None with
        | Admission.Admit -> ()
        | Admission.Reject _ -> Alcotest.fail "deadline-free request rejected");
    test "projection is zero before any observation" (fun () ->
        let a = Admission.create () in
        check_int "wait" 0 (Admission.projected_wait_ms a ~queue_depth:50 ~workers:1);
        match Admission.decide a ~queue_depth:50 ~workers:1 ~budget_ms:(Some 1) with
        | Admission.Admit -> ()
        | Admission.Reject _ -> Alcotest.fail "rejected with no service history");
    test "projection scales with depth and workers" (fun () ->
        let a = Admission.create () in
        Admission.observe a ~service_ns:10_000_000L (* 10 ms *);
        check_int "depth 10, 1 worker" 100
          (Admission.projected_wait_ms a ~queue_depth:10 ~workers:1);
        check_int "depth 10, 2 workers" 50
          (Admission.projected_wait_ms a ~queue_depth:10 ~workers:2);
        check_int "empty queue" 0
          (Admission.projected_wait_ms a ~queue_depth:0 ~workers:1));
    test "tight deadlines behind a slow queue are rejected" (fun () ->
        let a = Admission.create () in
        Admission.observe a ~service_ns:50_000_000L (* 50 ms *);
        (match Admission.decide a ~queue_depth:4 ~workers:1 ~budget_ms:(Some 100) with
        | Admission.Reject r ->
            check_int "projected" 200 r.Response.projected_wait_ms;
            check_int "depth" 4 r.Response.queue_depth
        | Admission.Admit -> Alcotest.fail "100 ms deadline admitted behind 200 ms queue");
        match Admission.decide a ~queue_depth:4 ~workers:1 ~budget_ms:(Some 500) with
        | Admission.Admit -> ()
        | Admission.Reject _ -> Alcotest.fail "500 ms deadline rejected behind 200 ms queue");
    test "the EWMA decays a pathological outlier" (fun () ->
        let a = Admission.create () in
        Admission.observe a ~service_ns:1_000_000_000L (* 1 s outlier *);
        for _ = 1 to 30 do
          Admission.observe a ~service_ns:1_000_000L (* 1 ms steady state *)
        done;
        let w = Admission.projected_wait_ms a ~queue_depth:1 ~workers:1 in
        check_bool "outlier decayed" true (w <= 5));
  ]

(* ------------------------------------------------------------------ *)
(* Prometheus text rendering. *)

let metrics_tests =
  [
    test "sanitize maps dots and dashes to underscores" (fun () ->
        check_string "dots" "store_intern_hit"
          (Serve.Metrics_text.sanitize "store.intern.hit");
        check_string "dashes" "a_b_c" (Serve.Metrics_text.sanitize "a-b.c"));
    test "render emits typed, labeled series" (fun () ->
        let module M = Telemetry.Metrics in
        let reg = M.create_registry () in
        let c = M.Counter.make ~registry:reg "demo.hits" in
        M.Counter.incr c 3;
        M.Counter.incr ~labels:[ ("op", "concat") ] c 2;
        let g = M.Gauge.make ~registry:reg "demo.depth" in
        M.Gauge.set g 7;
        let text = Serve.Metrics_text.render (M.Snapshot.take reg) in
        check_contains "counter type" text "# TYPE demo_hits counter";
        check_contains "bare series" text "demo_hits 3";
        check_contains "labeled series" text "demo_hits{op=\"concat\"} 2";
        check_contains "gauge type" text "# TYPE demo_depth gauge";
        check_contains "gauge series" text "demo_depth 7");
    test "render is deterministic" (fun () ->
        let module M = Telemetry.Metrics in
        let reg = M.create_registry () in
        let c = M.Counter.make ~registry:reg "demo.z" in
        M.Counter.incr c 1;
        let c2 = M.Counter.make ~registry:reg "demo.a" in
        M.Counter.incr c2 2;
        let snap = M.Snapshot.take reg in
        check_string "stable" (Serve.Metrics_text.render snap)
          (Serve.Metrics_text.render snap));
  ]

(* ------------------------------------------------------------------ *)
(* Handler: in-domain request execution. *)

let webcheck_req ?budget_states id program =
  Serve.Handler.handle
    (req ?budget_states ~id
       (Request.Webcheck (Request.webcheck_defaults ~program)))

let webcheck_report (r : Response.t) =
  match r.payload with
  | Response.Webcheck_report { sinks; vulnerable; _ } -> (sinks, vulnerable)
  | p -> Alcotest.failf "expected a webcheck report, got %s" (Response.payload_name p)

let eve_pages () =
  Corpus.Fig11.generate
    (List.find (fun a -> a.Corpus.Fig11.name = "eve") Corpus.Fig11.apps)

let eve_page name = List.assoc name (eve_pages ())

(* The paper's Fig. 1 shape: an unanchored digit filter in front of a
   concatenated query. *)
let vulnerable_page =
  {|$nid = input("nid");
    if (!preg_match(/[\d]+$/, $nid)) { echo "no"; exit; }
    query("SELECT * FROM t WHERE id=nid_" . $nid);|}

(* A loop (so the pre-pass runs the fixpoint) whose queries never
   see the input: the widened fixpoint proves both sinks safe. *)
let safe_loop_page =
  {|$ids = "0";
    while (!preg_match(/^done$/, input("more"))) {
      $ids = $ids . ",0";
    }
    query("SELECT * FROM t WHERE id IN (" . $ids . ")");
    query("SELECT * FROM t_log");|}

let handler_tests =
  [
    (* api links neither the solver nor the pipeline, so the wire
       defaults are pinned to the CLI's here *)
    test "wire defaults are the CLI defaults" (fun () ->
        let s = Request.solve_defaults ~system:"" in
        let d = Dprle.Solver.Config.default in
        check_int "max_solutions" d.max_solutions s.Request.max_solutions;
        check_int "combination_limit" d.combination_limit s.combination_limit;
        check_int "max_paths" Analysis.Pipeline.default_max_paths
          (Request.webcheck_defaults ~program:"").Request.max_paths);
    test "a default webcheck frame finds warp's xw_mn as webcheck does"
      (fun () ->
        let warp =
          List.find (fun a -> a.Corpus.Fig11.name = "warp") Corpus.Fig11.apps
        in
        let page = List.assoc "xw_mn.mphp" (Corpus.Fig11.generate warp) in
        match
          (webcheck_req "xw" (Webapp.Ast.to_source page)).Response.payload
        with
        | Response.Webcheck_report { vulnerable; paths_truncated; _ } ->
            check_int "vulnerable" 1 vulnerable;
            check_bool "paths_truncated" false paths_truncated
        | p -> Alcotest.failf "expected a webcheck report, got %s" (Response.payload_name p));
    test "solve answers sat with the request id echoed" (fun () ->
        let resp = Serve.Handler.handle (solve_req "h1" fig1) in
        check_string "id" "h1" resp.Response.id;
        check_string "payload" "sat" (payload_tag resp));
    test "a repeated solve hits the warm store" (fun () ->
        ignore (Serve.Handler.handle (solve_req "warm0" fig1));
        let resp = Serve.Handler.handle (solve_req "warm1" fig1) in
        check_bool "intern hits" true (resp.Response.obs.Response.intern_hits > 0));
    test "an unparseable system is a parse_error, not an exception" (fun () ->
        let resp = Serve.Handler.handle (solve_req "bad" "this is not a system") in
        check_string "code" "parse_error" (error_code resp));
    test "a state budget of one trips during construction" (fun () ->
        (* a pattern no other test interns, behind a literal: its
           residual determinizes the pattern, so the store cannot
           satisfy the request without building fresh states (a bare
           [v <= fresh] is answered by the pattern's own handle) *)
        let system =
          "let fresh = /zq[xw]{2,9}k/;\nlet pre = \"zq\";\npre . v77 <= fresh;\n"
        in
        let resp =
          Serve.Handler.handle (solve_req ~budget_states:1 "tiny" system)
        in
        check_string "code" "budget_exceeded" (error_code resp));
    test "lint returns a structured report" (fun () ->
        let resp = Serve.Handler.handle (req ~id:"l" (Request.Lint fig1)) in
        check_string "payload" "lint" (payload_tag resp));
    test "an unknown attack language is a parse_error" (fun () ->
        let p =
          {
            (Request.webcheck_defaults ~program:"x = 'a';") with
            Request.attack = "no-such-attack";
          }
        in
        let resp = Serve.Handler.handle (req ~id:"w" (Request.Webcheck p)) in
        check_string "code" "parse_error" (error_code resp));
    test "a page that reads an unassigned variable is a positioned parse_error"
      (fun () ->
        let resp =
          webcheck_req "wu" "$x = input(\"a\");\nquery(\"S\" . $x . $y);"
        in
        check_string "code" "parse_error" (error_code resp);
        match resp.payload with
        | Response.Error { message; _ } ->
            check_string "message" "2:18: unassigned variable $y" message
        | _ -> Alcotest.fail "expected an error");
    test "webcheck reports a vulnerable sink with its exploit inputs" (fun () ->
        let resp = webcheck_req "wv" vulnerable_page in
        let sinks, vulnerable = webcheck_report resp in
        check_int "vulnerable" 1 vulnerable;
        match sinks with
        | [ { Response.status = "vulnerable"; exploit; _ } ] ->
            let nid =
              match List.assoc_opt "nid" exploit with
              | Some v -> v
              | None -> Alcotest.fail "no exploit value for nid"
            in
            check_bool "the exploit carries a quote" true (String.contains nid '\'')
        | _ -> Alcotest.fail "expected one vulnerable sink");
    test "webcheck reports fixpoint-proved sinks without solving" (fun () ->
        let solves () =
          Telemetry.Metrics.Snapshot.(counter_total (of_default ()) "solver.solves")
        in
        let before = solves () in
        let sinks, vulnerable = webcheck_report (webcheck_req "ws" safe_loop_page) in
        check_int "solver.solves" 0 (solves () - before);
        check_int "vulnerable" 0 vulnerable;
        check_bool "every sink proved safe statically" true
          (List.map (fun (s : Response.sink) -> (s.sink_id, s.status)) sinks
          = [ (0, "proved_safe_statically"); (1, "proved_safe_statically") ]));
    test "a budget trip inside the fixpoint is one budget_exceeded error"
      (fun () ->
        (* eve's page_00 is the accumulator loop only the fixpoint can
           prove safe; its path enumeration builds no states, so with a
           cold store and fixpoint cache a small state budget trips in
           the fixpoint. Degrading that trip to "not pruning" would
           surface later as per-sink budget_exceeded statuses from the
           solves instead of one error. *)
        let page = Webapp.Ast.to_source (eve_page "page_00.mphp") in
        Automata.Store.clear ();
        let resp = webcheck_req ~budget_states:100 "wb" page in
        check_string "code" "budget_exceeded" (error_code resp);
        let sinks, _ = webcheck_report (webcheck_req "wb2" page) in
        check_bool "unbudgeted, the sink is proved safe" true
          (List.map (fun (s : Response.sink) -> s.status) sinks
          = [ "proved_safe_statically" ]));
    test "the wire request finds webcheck's vulnerable eve pages" (fun () ->
        (* [webcheck] over [corpusgen --app eve] reports edit.mphp
           alone (test/cram/corpus.t); the wire request, fed the same
           source text, must agree page by page *)
        let vulnerable_pages =
          List.filter_map
            (fun (name, program) ->
              let _, vulnerable =
                webcheck_report (webcheck_req name (Webapp.Ast.to_source program))
              in
              if vulnerable > 0 then Some name else None)
            (eve_pages ())
        in
        Alcotest.(check (list string)) "vulnerable pages" [ "edit.mphp" ]
          vulnerable_pages);
    test "stats reports the threaded request count" (fun () ->
        let resp = Serve.Handler.handle ~requests:42 (req ~id:"st" Request.Stats) in
        match resp.Response.payload with
        | Response.Stats_report { requests; _ } -> check_int "requests" 42 requests
        | p -> Alcotest.failf "expected stats, got %s" (Response.payload_name p));
    test "obs hit counts equal a snapshot diff around the request" (fun () ->
        let module Snapshot = Telemetry.Metrics.Snapshot in
        let hits diff =
          ( Snapshot.counter_total diff "store.intern.hit",
            Snapshot.counter_total diff "store.opcache.hit" )
        in
        let obs (r : Response.t) = (r.obs.intern_hits, r.obs.opcache_hits) in
        (* the request and the whole-registry reading it must match *)
        let handled r =
          let before = Snapshot.of_default () in
          let resp = Serve.Handler.handle r in
          (resp, hits (Snapshot.diff ~after:(Snapshot.of_default ()) ~before))
        in
        let check_obs what (resp, diff) =
          Alcotest.(check (pair int int)) what diff (obs resp);
          resp
        in
        ignore (check_obs "solve" (handled (solve_req "o1" fig1)));
        let again = check_obs "repeated solve" (handled (solve_req "o2" fig1)) in
        check_bool "the repeat hits the store" true (fst (obs again) > 0);
        ignore (check_obs "check" (handled (req ~id:"o3" (Request.Check fig1))));
        ignore (check_obs "lint" (handled (req ~id:"o4" (Request.Lint fig1))));
        let tripped =
          check_obs "budget trip"
            (handled
               (solve_req ~budget_states:1 "o5"
                  "let fresh = /yr[uv]{3,8}m/;\nlet pre = \"yr\";\npre . v78 <= fresh;\n"))
        in
        check_string "tripped" "budget_exceeded" (error_code tripped);
        (* webcheck requests on two engine workers: each worker's obs
           matches its own registry, and once the engine has absorbed
           the workers the parent's registry moved by their sum *)
        let pages = [ vulnerable_page; Webapp.Ast.to_source (eve_page "edit.mphp") ] in
        let parent_before = Snapshot.of_default () in
        let results, stats =
          Engine.map ~jobs:2
            ~f:(fun i program ->
              handled (req ~id:(Printf.sprintf "ow%d" i) (Request.Webcheck (Request.webcheck_defaults ~program))))
            pages
        in
        check_int "two workers" 2 stats.Engine.workers;
        let summed =
          List.fold_left
            (fun (i, o) (r : _ Engine.job_result) ->
              match r.outcome with
              | Engine.Done done_ ->
                  let resp = check_obs "webcheck on a worker" done_ in
                  check_string "webcheck payload" "webcheck" (payload_tag resp);
                  (i + resp.obs.intern_hits, o + resp.obs.opcache_hits)
              | _ -> Alcotest.fail "a webcheck job did not finish")
            (0, 0) results
        in
        check_bool "the workers hit the store" true (summed <> (0, 0));
        Alcotest.(check (pair int int))
          "absorbed worker counts" summed
          (hits (Snapshot.diff ~after:(Snapshot.of_default ()) ~before:parent_before)));
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end over a real socket. *)

let next_sock = ref 0

let fresh_listen () =
  incr next_sock;
  Server.Unix_socket
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "dprle-test-%d-%d.sock" (Unix.getpid ()) !next_sock))

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* Run the daemon on a thread, hand [f] the address, always shut the
   daemon down (idempotently — [f] may have already done so) and join
   before returning its lifetime outcome. *)
let with_server ?(configure = fun c -> c) f =
  let listen = fresh_listen () in
  let cfg = configure (Server.default_config listen) in
  let outcome = ref None in
  let t = Thread.create (fun () -> outcome := Some (Server.run cfg)) () in
  let cleanup () =
    (match Client.connect ~retries:3 listen with
    | Ok c ->
        ignore (Client.request c (req ~id:"cleanup" Request.Shutdown));
        Client.close c
    | Error _ -> ());
    Thread.join t
  in
  Fun.protect ~finally:cleanup (fun () -> f listen);
  !outcome

let decode_error line =
  match Api.decode_response ~max_bytes:(16 * 1024 * 1024) line with
  | Ok ({ payload = Response.Error _; _ } as r) -> error_code r
  | Ok r -> Alcotest.failf "expected an error frame, got %s" (payload_tag r)
  | Error rej -> Alcotest.failf "undecodable frame: %s" rej.Api.message

let e2e_tests =
  [
    test "solve round-trips and the store stays warm across requests" (fun () ->
        let outcome =
          with_server (fun listen ->
              let c = ok "connect" (Client.connect listen) in
              let r1 = ok "first" (Client.request c (solve_req "e1" fig1)) in
              check_string "first" "sat" (payload_tag r1);
              let r2 = ok "second" (Client.request c (solve_req "e2" fig1)) in
              check_string "second" "sat" (payload_tag r2);
              check_bool "warm intern hits" true
                (r2.Response.obs.Response.intern_hits > 0);
              Client.close c)
        in
        match outcome with
        | Some o ->
            check_bool "served both" true (o.Server.served >= 2);
            check_int "nothing malformed" 0 o.Server.malformed
        | None -> Alcotest.fail "server thread reported no outcome");
    test "a malformed frame is answered and the connection survives" (fun () ->
        ignore
          (with_server (fun listen ->
               let c = ok "connect" (Client.connect listen) in
               ok "send" (Client.send_raw c "this is not json\n");
               (match Client.recv_line c with
               | Some line -> check_string "code" "malformed" (decode_error line)
               | None -> Alcotest.fail "connection closed on malformed frame");
               let r = ok "after" (Client.request c (req ~id:"ok" Request.Stats)) in
               check_string "still serving" "stats" (payload_tag r);
               Client.close c)));
    test "an oversized terminated frame is answered without dropping the line"
      (fun () ->
        ignore
          (with_server
             ~configure:(fun c -> { c with Server.max_frame_bytes = 256 })
             (fun listen ->
               let c = ok "connect" (Client.connect listen) in
               ok "send" (Client.send_raw c (String.make 1024 'a' ^ "\n"));
               (match Client.recv_line c with
               | Some line -> check_string "code" "too_large" (decode_error line)
               | None -> Alcotest.fail "connection closed on oversized frame");
               let r = ok "after" (Client.request c (req ~id:"ok" Request.Stats)) in
               check_string "still serving" "stats" (payload_tag r);
               Client.close c)));
    test "an unterminated overflow is answered and the connection is cut"
      (fun () ->
        ignore
          (with_server
             ~configure:(fun c -> { c with Server.max_frame_bytes = 256 })
             (fun listen ->
               let c = ok "connect" (Client.connect listen) in
               (* no newline: the frame can never complete, so the
                  server answers and cuts the connection *)
               ok "send" (Client.send_raw c (String.make 1024 'a'));
               (match Client.recv_line c with
               | Some line -> check_string "code" "too_large" (decode_error line)
               | None -> Alcotest.fail "no answer before the cut");
               check_bool "connection cut" true (Client.recv_line c = None);
               Client.close c;
               (* and the daemon is still there for the next client *)
               let c2 = ok "reconnect" (Client.connect listen) in
               let r = ok "after" (Client.request c2 (req ~id:"ok" Request.Stats)) in
               check_string "still serving" "stats" (payload_tag r);
               Client.close c2)));
    test "a mid-request disconnect leaves the daemon serving" (fun () ->
        let outcome =
          with_server (fun listen ->
              let c1 = ok "connect" (Client.connect listen) in
              ok "send"
                (Client.send_raw c1
                   (Api.encode_request (solve_req "dropped" fig1) ^ "\n"));
              Client.close c1;
              let c2 = ok "reconnect" (Client.connect listen) in
              let r = ok "solve" (Client.request c2 (solve_req "after" fig1)) in
              check_string "still solving" "sat" (payload_tag r);
              Client.close c2)
        in
        match outcome with
        | Some o -> check_bool "both solves served" true (o.Server.served >= 2)
        | None -> Alcotest.fail "server thread reported no outcome");
    test "a per-request state budget is enforced in the worker" (fun () ->
        ignore
          (with_server (fun listen ->
               let c = ok "connect" (Client.connect listen) in
               let r =
                 ok "solve"
                   (Client.request c (solve_req ~budget_states:1 "tiny" fig1))
               in
               check_string "code" "budget_exceeded" (error_code r);
               Client.close c)));
    test "the metrics endpoint speaks Prometheus text" (fun () ->
        ignore
          (with_server (fun listen ->
               let c = ok "connect" (Client.connect listen) in
               let r = ok "solve" (Client.request c (solve_req "m1" fig1)) in
               check_string "solve" "sat" (payload_tag r);
               Client.close c;
               let body = ok "scrape" (Client.scrape listen) in
               check_contains "type header" body "# TYPE";
               check_contains "serve counters" body "serve_requests";
               check_contains "store counters" body "store_intern_")));
    test "shutdown reports lifetime totals" (fun () ->
        let outcome =
          with_server (fun listen ->
              let c = ok "connect" (Client.connect listen) in
              let _ = ok "solve" (Client.request c (solve_req "s" fig1)) in
              ok "send" (Client.send_raw c "garbage\n");
              ignore (Client.recv_line c);
              let r = ok "shutdown" (Client.request c (req ~id:"sd" Request.Shutdown)) in
              (match r.Response.payload with
              | Response.Shutdown_ack { drained } -> check_int "drained" 0 drained
              | p -> Alcotest.failf "expected shutdown_ack, got %s" (Response.payload_name p));
              Client.close c)
        in
        match outcome with
        | Some o ->
            check_bool "served" true (o.Server.served >= 2);
            check_int "malformed" 1 o.Server.malformed
        | None -> Alcotest.fail "server thread reported no outcome");
  ]

let listen_tests =
  [
    test "listen_of_string parses every spelling" (fun () ->
        (match Server.listen_of_string "unix:/tmp/x.sock" with
        | Ok (Server.Unix_socket "/tmp/x.sock") -> ()
        | _ -> Alcotest.fail "unix: scheme");
        (match Server.listen_of_string "tcp:127.0.0.1:9000" with
        | Ok (Server.Tcp ("127.0.0.1", 9000)) -> ()
        | _ -> Alcotest.fail "tcp: scheme");
        (match Server.listen_of_string "/tmp/y.sock" with
        | Ok (Server.Unix_socket "/tmp/y.sock") -> ()
        | _ -> Alcotest.fail "bare path");
        match Server.listen_of_string "tcp:noport" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "tcp without a port should not parse");
  ]

let suite =
  [
    ("serve:admission", admission_tests);
    ("serve:metrics-text", metrics_tests);
    ("serve:handler", handler_tests);
    ("serve:e2e", e2e_tests @ listen_tests);
  ]
