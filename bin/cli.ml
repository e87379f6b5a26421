(* Command-line plumbing shared by dprle and webcheck: log setup,
   the --events/--metrics observability wrapper, the --trace /
   --trace-tree span collector, and the directory listing, claim
   weight and failure backtraces of the engine's directory runs. *)

module Snapshot = Telemetry.Metrics.Snapshot

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* [--events FILE] opens the JSONL sink around the whole command
   (closed and flushed via Fun.protect, so a crash keeps every emitted
   line; mutex-protected, so engine workers can emit concurrently),
   and [--metrics] dumps the final registry snapshot — deterministic
   text: counts only, no nanoseconds — to stderr on the way out. Both
   leave stdout untouched. *)
let with_observability ~metrics ~events f =
  Telemetry.Events.with_sink events @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      if metrics then Fmt.epr "%a" Snapshot.pp (Snapshot.of_default ()))
    f

(* Worker span trees collected by a directory run, exported as extra
   trace lanes (tid 2, 3, ...) so concurrent activity lines up in the
   viewer. Filled by the command before the trace is emitted. *)
let trace_lanes : (string * Telemetry.Span.t) list ref = ref []

(* Run [f] under a span collector rooted at [name] when any trace
   output was requested; write the Chrome trace_event JSON and/or
   print the indented tree to stderr. The writer runs from the
   [Span.collect_emit] finaliser, so a run that raises (or is
   interrupted by Ctrl-C, which [Sys.catch_break] turns into an
   exception) still flushes the partial trace. A metrics snapshot diff
   of the traced region rides along under a "metrics" key — Chrome
   ignores unknown keys. *)
let with_trace ~name ~trace ~trace_tree f =
  if trace = None && not trace_tree then f ()
  else begin
    let before = Snapshot.of_default () in
    let emit span =
      Option.iter
        (fun path ->
          try
            let diff = Snapshot.diff ~after:(Snapshot.of_default ()) ~before in
            let base =
              match !trace_lanes with
              | [] -> Telemetry.Span.to_chrome_json span
              | lanes -> Telemetry.Span.to_chrome_json_lanes ~lanes span
            in
            let json =
              match base with
              | Telemetry.Json.Obj fields ->
                  Telemetry.Json.Obj
                    (fields @ [ ("metrics", Snapshot.to_json diff) ])
              | other -> other
            in
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (Telemetry.Json.to_string json))
          with Sys_error msg -> Fmt.epr "error: cannot write trace: %s@." msg)
        trace;
      if trace_tree then begin
        Fmt.epr "%a" Telemetry.Span.pp_tree span;
        List.iter
          (fun (_, lane) -> Fmt.epr "%a" Telemetry.Span.pp_tree lane)
          !trace_lanes
      end
    in
    Telemetry.Span.collect_emit ~name ~emit f
  end

(* Claim-order weight for the engine's size-sorted scheduling: file
   byte size is a cheap, deterministic proxy for the work a file
   costs, so big files start first and a skewed mix can't strand the
   tail on one worker. *)
let file_weight path =
  try Int64.to_int (In_channel.with_open_bin path In_channel.length)
  with Sys_error _ -> 0

(* The names of [dir]'s files ending in [suffix], sorted. *)
let files_with_suffix suffix dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.sort compare

(* A failed job's backtrace (recorded only when tracing turned
   [Printexc.record_backtrace] on) goes to stderr so the deterministic
   stdout stays byte-identical across --jobs values. *)
let print_failure_backtrace file (f : Engine.failure) =
  Option.iter
    (fun bt -> Fmt.epr "%s: failure backtrace:@,%s@." file bt)
    f.backtrace
