(* The repository benchmark. One process, one domain, one caller: each
   workload is a closed loop that hands the library its next item only
   after the previous verdict is back.

     main.exe --workload scan|wire|secure --seed N --seconds S --trace 0|1

   --trace 0 times whole passes over the items for at least S seconds
   and reports the end-to-end metrics, each time scaled to the host's
   nominal speed (Speed); --trace 1 alternates untraced
   and traced reps of one pass for S seconds and reports the per-layer
   metrics. Either way the last line of stdout is one JSON object and
   the run log goes to stderr. See README.md. *)

open Perfbench

let now = Telemetry.Clock.now_ns
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let setup_reps = 5
let min_items = 100

(* peak_rss_mb is read after this many passes, so that it covers the
   same work however fast the host or the program runs: the high-water
   mark creeps up pass by pass even where the heap's top stays put, so
   a reading at the end of the run would rise with every speed-up. *)
let rss_passes = 10

(* The process's RSS high-water mark, from /proc. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:0.

type args = { workload : string; seed : int; seconds : int; trace : bool }

let parse_args argv =
  let rec go acc = function
    | "--workload" :: w :: rest -> go { acc with workload = w } rest
    | "--seed" :: n :: rest -> go { acc with seed = int_of_string n } rest
    | "--seconds" :: n :: rest -> go { acc with seconds = int_of_string n } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with trace = t = "1" } rest
    | [] -> acc
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  let args = go { workload = ""; seed = 1; seconds = 0; trace = false } (List.tl (Array.to_list argv)) in
  if args.seconds < 1 then failwith "--seconds S (S >= 1) is required";
  args

(* One set-up, scaled by the median of [setup_samples] reference
   samples taken just before it and as many just after (Speed).
   Returns the spec and the set-up's scaled and unscaled seconds. *)
let setup_samples = 3

let setup_once make ~seed =
  Gc.compact ();
  let speed = Speed.create () in
  for _ = 1 to setup_samples do Speed.take speed done;
  let t0 = now () in
  let spec = make ~seed in
  let secs = ms_between t0 (now ()) /. 1000. in
  for _ = 1 to setup_samples do Speed.take speed done;
  let reference = Stats.median (Speed.durations (Speed.freeze speed)) in
  (spec, (secs *. Speed.nominal_ms /. reference, secs))

(* [f ()] in a forked child, which writes the two floats it returns
   to a pipe and exits; the parent waits for it. *)
let in_child f =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        match f () with
        | a, b ->
            let oc = Unix.out_channel_of_descr w in
            Printf.fprintf oc "%.17g %.17g\n" a b;
            close_out oc;
            0
        | exception e ->
            prerr_endline ("perfbench: set-up failed: " ^ Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = In_channel.input_line ic in
      close_in ic;
      match (snd (Unix.waitpid [] pid), line) with
      | Unix.WEXITED 0, Some l -> Scanf.sscanf l "%f %f" (fun a b -> (a, b))
      | _ -> failwith "set-up failed in a child process")

(* Set-up runs [setup_reps] times, each from the state the process
   starts in: all but the last in a forked child, and the last here,
   whose state is the one timed. Its time is the median. The process
   thus holds the garbage of one set-up, as a fresh [webcheck FILE]
   run or serve worker would, and peak_rss_mb does not depend on how
   earlier set-ups left the heap. Returns the spec, the median and
   each rep's scaled and unscaled seconds. *)
let timed_setup make ~seed =
  let children = List.init (setup_reps - 1) (fun _ -> in_child (fun () -> snd (setup_once make ~seed))) in
  let spec, last = setup_once make ~seed in
  let reps = children @ [ last ] in
  (spec, Stats.median (List.map fst reps), reps)

(* One item's times: from hand-in to verdict, and from the start of
   the untimed reset before it to the verdict (what a pass spends on
   the item); and the verdict's midpoint in time, which picks the
   reference samples that scale both. *)
type timing = { latency_ms : float; span_ms : float; mid_ns : float }

let run_item (spec : _ Harness.t) pos =
  let t_reset = now () in
  spec.before_item ();
  let t0 = now () in
  let out = Harness.span "item" (fun () -> spec.run pos) in
  let t1 = now () in
  ( out,
    { latency_ms = ms_between t0 t1;
      span_ms = ms_between t_reset t1;
      mid_ns = (Int64.to_float t0 +. Int64.to_float t1) /. 2. } )

(* Whole passes until [seconds] have gone by, [min_items] items were
   timed and [rss_passes] passes ran, so every item weighs the same in
   the percentiles. The reference loop runs before the first item,
   between items every [Speed.every_ms] and after the last. Returns
   each pass's timings, the outputs, the reference samples and the
   peak RSS after [rss_passes] passes. *)
let timed_loop (spec : _ Harness.t) ~seconds =
  let deadline = Int64.add (now ()) (Int64.of_int (seconds * 1_000_000_000)) in
  let speed = Speed.create () in
  Speed.take speed;
  let passes = ref [] and outputs = Hashtbl.create 1024 and n = ref 0 and rss = ref 0. in
  while !n < min_items || List.length !passes < rss_passes || now () < deadline do
    let pass =
      Array.init spec.cycle (fun pos ->
          let out, timing = run_item spec pos in
          Hashtbl.replace outputs (pos, out) ();
          Speed.tick speed;
          timing)
    in
    n := !n + spec.cycle;
    passes := pass :: !passes;
    if List.length !passes = rss_passes then rss := peak_rss_mb ()
  done;
  Speed.take speed;
  (List.rev !passes, outputs, Speed.freeze speed, !rss)

(* The deferred oracle: [outputs] holds each distinct (position,
   output) pair seen, and each is checked once. Failures count per
   cycle position, so the count is a property of the seed, not of how
   many passes fit in the time. *)
let judge (spec : _ Harness.t) outputs =
  let worst = Array.make spec.cycle Harness.Pass in
  let distinct = Array.make spec.cycle 0 in
  Hashtbl.iter
    (fun (pos, out) () ->
      distinct.(pos) <- distinct.(pos) + 1;
      match (worst.(pos), spec.check pos out) with
      | Harness.Pass, v | Harness.Known_defect _, (Harness.Wrong _ as v) -> worst.(pos) <- v
      | _ -> ())
    outputs;
  let failed = ref 0 and correct = ref true in
  Array.iteri
    (fun pos v ->
      match v with
      | Harness.Pass -> ()
      | Harness.Known_defect why ->
          incr failed;
          log "failed (known defect) at item %d: %s" pos why
      | Harness.Wrong why ->
          incr failed;
          correct := false;
          log "WRONG at item %d: %s" pos why)
    worst;
  let varied = Array.fold_left (fun acc d -> if d > 1 then acc + 1 else acc) 0 distinct in
  if varied > 0 then log "items with more than one distinct output across passes: %d" varied;
  (!correct, spec.cycle, !failed)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else failwith "non-finite metric"

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "%-34s %14.4f %s\n" name v unit) metrics;
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

(* The end-to-end metrics are scaled times: each item's latency and
   span times [Speed.scale] at its midpoint. Throughput is the median
   over passes of the items over the pass's summed spans. The run log
   also gives the unscaled, wall-clock figures. *)
let end_to_end (spec : _ Harness.t) ~setup_s ~seconds =
  Gc.compact ();
  let passes, outputs, speed, rss = timed_loop spec ~seconds in
  let items = List.concat_map Array.to_list passes in
  let scaled t = Speed.scale speed t.mid_ns in
  let unscaled _ = 1. in
  let latencies f = Array.of_list (List.map (fun t -> t.latency_ms *. f t) items) in
  let rates f =
    List.map
      (fun pass ->
        float_of_int spec.cycle
        /. (Array.fold_left (fun acc t -> acc +. (t.span_ms *. f t)) 0. pass /. 1000.))
      passes
  in
  let pct lat p = Stats.percentile_exn ~min_beyond:10 lat p in
  let lat = latencies scaled and wall = latencies unscaled in
  let p50 = pct lat 50. and p90 = pct lat 90. in
  let per_pass = rates scaled in
  let refs = Speed.durations speed in
  log "timed %d items in %d passes; items/s per pass (scaled): %s" (Array.length lat)
    (List.length passes)
    (String.concat " " (List.map (Printf.sprintf "%.2f") per_pass));
  log "reference loop ms: median %.4f, min %.4f, max %.4f over %d samples (nominal %.2f)"
    (Stats.median refs) (List.fold_left Float.min infinity refs)
    (List.fold_left Float.max neg_infinity refs) (List.length refs) Speed.nominal_ms;
  log "unscaled wall clock: throughput %.4f items/s, p50 %.4f ms, p90 %.4f ms"
    (Stats.median (rates unscaled)) (pct wall 50.) (pct wall 90.);
  log "latency deciles ms, scaled (p10..p90): %s"
    (String.concat " " (List.map (Printf.sprintf "%.3f") (Stats.deciles lat)));
  let correct, attempted, failed = judge spec outputs in
  print_result ~correct ~attempted ~failed
    [ ("throughput", "items/s", Stats.median per_pass);
      ("latency_p50_ms", "ms", p50);
      ("latency_p90_ms", "ms", p90);
      ("setup_s", "s", setup_s);
      ("peak_rss_mb", "MB", rss) ]

(* Untraced and traced reps of one pass alternate for [seconds]; each
   rep starts from [spec.reset]. *)
let traced spec ~seconds =
  let deadline = Int64.add (now ()) (Int64.of_int (seconds * 1_000_000_000)) in
  let outputs = Hashtbl.create 1024 in
  let batch () =
    for pos = 0 to spec.Harness.cycle - 1 do
      Hashtbl.replace outputs (pos, fst (run_item spec pos)) ()
    done
  in
  let untraced = ref [] and traced = ref [] in
  while List.length !traced < 2 || now () < deadline do
    spec.reset ();
    let t0 = now () in
    batch ();
    untraced := ms_between t0 (now ()) :: !untraced;
    spec.reset ();
    let before = Telemetry.Metrics.Snapshot.of_default () in
    let c0 = !Harness.candidates and k0 = !Harness.constraints_in in
    let t0 = now () in
    let (), root = Telemetry.Span.collect ~name:"rep" batch in
    let wall = ms_between t0 (now ()) in
    let diff = Telemetry.Metrics.Snapshot.diff ~after:(Telemetry.Metrics.Snapshot.of_default ()) ~before in
    traced :=
      ( wall,
        { Layers.items = spec.cycle;
          spans = Layers.span_totals root;
          diff;
          candidates = !Harness.candidates - c0;
          constraints_in = !Harness.constraints_in - k0 } )
      :: !traced
  done;
  let reps = List.rev_map snd !traced in
  let first = List.hd reps in
  let overhead =
    100. *. ((Stats.median (List.map fst !traced) /. Stats.median !untraced) -. 1.)
  in
  let dependent = Layers.timing_dependent first (List.tl reps) in
  log "reps: %d untraced, %d traced, %d items each" (List.length !untraced) (List.length reps) spec.cycle;
  log "timing-dependent counter series: %s"
    (if dependent = [] then "none" else String.concat " " dependent);
  let times =
    List.map
      (fun (name, unit, _) ->
        let vs = List.map (fun r -> List.find (fun (n, _, _) -> n = name) (Layers.times r)) reps in
        (name, unit, Stats.median (List.map (fun (_, _, v) -> v) vs)))
      (Layers.times first)
  in
  let correct, attempted, failed = judge spec outputs in
  print_result ~correct ~attempted ~failed
    (times @ Layers.counts first
    @ [ ("trace.overhead_pct", "%", overhead);
        ("trace.timing_dependent_counters", "count", float_of_int (List.length dependent)) ])

let main args =
  let go make =
    let spec, setup_s, setups = timed_setup make ~seed:args.seed in
    let show f = String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" (f r)) setups) in
    log "workload %s seed %d: inputs md5 %s" spec.Harness.name args.seed spec.digest;
    Printf.printf "inputs md5 %s\n" spec.digest;
    log "set-up s, scaled: %s; unscaled: %s" (show fst) (show snd);
    if args.trace then traced spec ~seconds:args.seconds
    else end_to_end spec ~setup_s ~seconds:args.seconds
  in
  match args.workload with
  | "scan" -> go Scan.setup
  | "wire" -> go Wire.setup
  | "secure" -> go Secure.setup
  | w -> failwith ("unknown workload " ^ w)

let () =
  match main (parse_args Sys.argv) with
  | () -> ()
  | exception Failure msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2
