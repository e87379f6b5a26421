(* Tests of the benchmark's own code: percentiles, the speed scaling,
   the wire oracle, and input determinism. *)

open Perfbench

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let percentile_refuses_thin_tail () =
  (match Stats.percentile ~min_beyond:10 (samples 99) 90. with
  | Ok v -> Alcotest.failf "p90 of 99 samples accepted (%g)" v
  | Error _ -> ());
  Alcotest.(check (result (float 0.) string))
    "p90 of 100 samples" (Ok 90.)
    (Stats.percentile ~min_beyond:10 (samples 100) 90.);
  Alcotest.(check (float 0.)) "nearest-rank p50" 3. (Stats.percentile_exn (samples 5) 50.)

(* Each time is scaled by the median of the three reference samples
   closest to it, wherever it falls among them. *)
let speed_uses_nearest_samples () =
  let f = { Speed.times = [| 0.; 10.; 20.; 30.; 40. |]; durations = [| 1.; 2.; 3.; 4.; 100. |] } in
  let local t = Speed.local_ms f t in
  Alcotest.(check (float 0.)) "before the first" 2. (local (-5.));
  Alcotest.(check (float 0.)) "between, nearer the earlier" 3. (local 24.);
  Alcotest.(check (float 0.)) "after the last, outlier discounted" 4. (local 41.);
  Alcotest.(check (float 0.)) "one sample" 7. (Speed.local_ms { Speed.times = [| 5. |]; durations = [| 7. |] } 0.);
  Alcotest.(check (float 1e-12)) "scale" (Speed.nominal_ms /. 3.) (Speed.scale f 24.)

let derivative_matcher () =
  let r = Rx.Seq [ Rx.Lit "c"; Rx.Class (Rx.lower, 0, None) ] in
  Alcotest.(check bool) "cq in c[a-z]*" true (Rx.matches r "cq");
  Alcotest.(check bool) "q not in c[a-z]*" false (Rx.matches r "q");
  let r = Rx.Class (Rx.lower, 2, Some 8) in
  Alcotest.(check bool) "8 letters" true (Rx.matches r "abcdefgh");
  Alcotest.(check bool) "9 letters" false (Rx.matches r "aabcdefgh");
  Alcotest.(check string) "rendering" "(ab|[0-9a-z]{2,4})"
    (Rx.render (Rx.Alt [ Rx.Lit "ab"; Rx.Class (Wiregen.sort_chars (Rx.lower ^ Rx.digits), 2, Some 4) ]))

(* The planted words satisfy every generated satisfiable system as the
   library itself reads the rendered text. *)
let planted_words_satisfy () =
  Array.iter
    (fun (s : Wiregen.t) ->
      if s.sat then
        let words = List.init s.nvars (fun i -> (Wiregen.var_name s i, s.planted.(i))) in
        if not (Dprle.Bounded.check (Dprle.Sysparse.parse_exn s.text) words) then
          Alcotest.failf "planted words rejected by the library:\n%s" s.text)
    (Wiregen.pool (Random.State.make [| 3 |]) ~size:40)

(* The two systems on record for the solver's spurious disjuncts. *)
let defect_systems =
  let v = Wiregen.V 0 in
  [ ( "v . \"q\" <= /^c[a-z]*$/",
      Wiregen.make [| "c" |]
        [ { lhs = [ v; K "q" ]; rhs = Rx.Seq [ Rx.Lit "c"; Rx.Class (Rx.lower, 0, None) ] } ] );
    ( "v . \"abcdefg\" <= /^[a-z]{2,8}$/",
      Wiregen.make [| "a" |] [ { lhs = [ v; K "abcdefg" ]; rhs = Rx.Class (Rx.lower, 2, Some 8) } ] ) ]

let oracle_flags_defects () =
  List.iter
    (fun (name, (sys : Wiregen.t)) ->
      let payload = Wire.handle (Wire.encode ~id:"t" (Wire.kinds sys.text).(0)) in
      match Wire.check_payload sys ~unsat_confirmed:(lazy None) `Solve payload with
      | Harness.Known_defect _ -> ()
      | Harness.Pass -> Alcotest.failf "%s: oracle passed the spurious disjunct" name
      | Harness.Wrong why -> Alcotest.failf "%s: expected the known defect, got %s" name why)
    defect_systems

let oracle_rejects_wrong_verdict () =
  let _, sys = List.hd defect_systems in
  match Wire.check_payload sys ~unsat_confirmed:(lazy None) `Check (Api.Response.Unsat { reason = "x"; core = [] }) with
  | Harness.Wrong _ -> ()
  | _ -> Alcotest.fail "unsat on a planted-sat system was not flagged"

(* A system with a single-variable concatenation on v0, a bound on v0
   and a bound on v1. A bad witness is the known defect only where it
   violates the concatenation and nothing beyond v0's constraints. *)
let concat_and_bounds =
  Wiregen.make [| "c"; "b" |]
    [ { lhs = [ Wiregen.V 0; K "q" ]; rhs = Rx.Seq [ Rx.Lit "c"; Rx.Class (Rx.lower, 0, None) ] };
      { lhs = [ Wiregen.V 0 ]; rhs = Rx.Class ("abc", 1, Some 3) };
      { lhs = [ Wiregen.V 1 ]; rhs = Rx.Class ("abc", 1, None) } ]

let oracle_blames_other_constraints () =
  let sys = concat_and_bounds in
  let v = Wiregen.var_name sys 0 and u = Wiregen.var_name sys 1 in
  let judge ~solutions witnesses =
    Wire.check_payload sys ~unsat_confirmed:(lazy None) `Solve (Api.Response.Sat { solutions; witnesses })
  in
  let expect name want got =
    match (want, got) with
    | `Wrong, Harness.Wrong _ | `Defect, Harness.Known_defect _ | `Pass, Harness.Pass -> ()
    | _, (Harness.Pass | Harness.Known_defect _ | Harness.Wrong _) -> Alcotest.failf "%s: wrong judgement" name
  in
  expect "planted witness" `Pass (judge ~solutions:1 [ [ (v, "c"); (u, "b") ] ]);
  (* "a" . "q" misses c[a-z]*, and "a" is in [abc]{1,3} *)
  expect "violates only the concatenation" `Defect (judge ~solutions:2 [ [ (v, "c"); (u, "b") ]; [ (v, "a"); (u, "b") ] ]);
  (* "" . "q" misses c[a-z]*, and "" misses the bound on the same variable *)
  expect "violates the concatenation and its variable's bound" `Defect (judge ~solutions:1 [ [ (v, ""); (u, "b") ] ]);
  (* "cz" . "q" is in c[a-z]*, and "cz" is not in [abc]{1,3} *)
  expect "violates only a bound" `Wrong (judge ~solutions:1 [ [ (v, "cz"); (u, "b") ] ]);
  expect "violates a bound on another variable" `Wrong (judge ~solutions:1 [ [ (v, "a"); (u, "z") ] ]);
  expect "missing variable" `Wrong (judge ~solutions:1 [ [ (v, "c") ] ]);
  expect "fewer witnesses than disjuncts" `Wrong (judge ~solutions:2 [ [ (v, "c"); (u, "b") ] ]);
  expect "a wrong witness outranks a defect" `Wrong
    (judge ~solutions:2 [ [ (v, "a"); (u, "b") ]; [ (v, "cz"); (u, "b") ] ])

let digests_repeat () =
  let check name texts =
    let d seed = Harness.md5_hex (texts seed) in
    Alcotest.(check string) (name ^ ": same seed") (d 5) (d 5);
    if d 5 = d 6 then Alcotest.failf "%s: seeds 5 and 6 give the same inputs" name
  in
  check "scan" (fun seed -> Scan.texts (Scan.pages ~seed));
  check "wire" (fun seed -> Wire.texts (Wire.inputs ~seed));
  check "secure" (fun seed -> Secure.texts ~seed)

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "percentile refuses a thin tail" `Quick percentile_refuses_thin_tail;
          Alcotest.test_case "speed scaling uses the nearest samples" `Quick speed_uses_nearest_samples ] );
      ( "oracle",
        [ Alcotest.test_case "derivative matcher" `Quick derivative_matcher;
          Alcotest.test_case "planted words satisfy" `Quick planted_words_satisfy;
          Alcotest.test_case "flags the known defect systems" `Quick oracle_flags_defects;
          Alcotest.test_case "rejects a wrong verdict" `Quick oracle_rejects_wrong_verdict;
          Alcotest.test_case "blames only single-variable concatenations" `Quick
            oracle_blames_other_constraints ] );
      ("inputs", [ Alcotest.test_case "digest repeats for a seed" `Quick digests_repeat ]) ]
