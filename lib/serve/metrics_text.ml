module Snapshot = Telemetry.Metrics.Snapshot

(* Prometheus exposition names: [a-zA-Z_:][a-zA-Z0-9_:]* — the
   registry's dotted names map '.'/'-' to '_'. *)
let sanitize name =
  String.map (function '.' | '-' -> '_' | c -> c) name

let labels_str = function
  | [] -> ""
  | labels ->
      let escaped v =
        let buf = Buffer.create (String.length v + 2) in
        String.iter
          (function
            | '"' -> Buffer.add_string buf "\\\""
            | '\\' -> Buffer.add_string buf "\\\\"
            | '\n' -> Buffer.add_string buf "\\n"
            | c -> Buffer.add_char buf c)
          v;
        Buffer.contents buf
      in
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> sanitize k ^ "=\"" ^ escaped v ^ "\"") labels)
      ^ "}"

let render snapshot =
  let buf = Buffer.create 4096 in
  let line name labels value =
    Buffer.add_string buf (sanitize name);
    Buffer.add_string buf (labels_str labels);
    Buffer.add_char buf ' ';
    Buffer.add_string buf value;
    Buffer.add_char buf '\n'
  in
  let typ name kind =
    Buffer.add_string buf ("# TYPE " ^ sanitize name ^ " " ^ kind ^ "\n")
  in
  let by_series (n1, l1, _) (n2, l2, _) = compare (n1, l1) (n2, l2) in
  let grouped emit series =
    (* one # TYPE header per metric name, series sorted beneath it *)
    let sorted = List.sort by_series series in
    List.fold_left
      (fun last (name, labels, v) ->
        if last <> Some name then emit ~header:true name labels v
        else emit ~header:false name labels v;
        Some name)
      None sorted
    |> ignore
  in
  grouped
    (fun ~header name labels v ->
      if header then typ name "counter";
      line name labels (string_of_int v))
    (Snapshot.counters snapshot);
  grouped
    (fun ~header name labels v ->
      if header then typ name "gauge";
      line name labels (string_of_int v))
    (Snapshot.gauges snapshot);
  grouped
    (fun ~header name labels (h : Snapshot.histogram_stat) ->
      if header then typ (name ^ "_count") "counter";
      line (name ^ "_count") labels (string_of_int h.count);
      line (name ^ "_sum") labels (Printf.sprintf "%.6g" h.sum))
    (Snapshot.histograms snapshot);
  grouped
    (fun ~header name labels (t : Snapshot.timer_stat) ->
      if header then typ (name ^ "_calls") "counter";
      line (name ^ "_calls") labels (string_of_int t.count);
      line
        (name ^ "_seconds_total")
        labels
        (Printf.sprintf "%.9f" (Int64.to_float t.total_ns /. 1e9)))
    (Snapshot.timers snapshot);
  Buffer.contents buf

(* Counter series flattened to the registry's pp spelling
   ("store.opcache.hit{op=inter_lang}"), sorted for determinism. *)
let stats_counters () =
  Snapshot.counters (Snapshot.of_default ())
  |> List.map (fun (name, labels, v) ->
         let rendered =
           match labels with
           | [] -> name
           | labels ->
               name ^ "{"
               ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
               ^ "}"
         in
         (rendered, v))
  |> List.sort compare
