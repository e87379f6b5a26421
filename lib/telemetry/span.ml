type attr = [ `Int of int | `Float of float | `String of string | `Bool of bool ]

type t = {
  name : string;
  mutable attrs : (string * attr) list;
  start_ns : int64;
  mutable dur_ns : int64;
  mutable children_rev : t list;
}

let name s = s.name
let attrs s = s.attrs
let duration_ns s = s.dur_ns
let start_ns s = s.start_ns
let children s = List.rev s.children_rev

(* The open-span stack, one per domain: each engine worker collects
   its own tree without synchronization, and the trees are merged as
   separate lanes at export time ({!to_chrome_json_lanes}). Tracing is
   off in a domain exactly when its stack is empty: instrumentation
   points call {!with_span} unconditionally and pay only this
   emptiness check until someone higher up (in the same domain) opens
   a {!collect} scope. *)
let stack_key : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key
let enabled () = !(stack ()) <> []

let collect ?(attrs = []) ~name f =
  let stack = stack () in
  let span =
    { name; attrs; start_ns = Clock.now_ns (); dur_ns = 0L; children_rev = [] }
  in
  stack := span :: !stack;
  let finally () =
    (match !stack with
    | top :: rest when top == span -> stack := rest
    | _ -> stack := List.filter (fun s -> s != span) !stack);
    span.dur_ns <- Int64.sub (Clock.now_ns ()) span.start_ns;
    match !stack with
    | parent :: _ -> parent.children_rev <- span :: parent.children_rev
    | [] -> ()
  in
  let result = Fun.protect ~finally f in
  (result, span)

let with_span ?attrs ~name f =
  if not (enabled ()) then f () else fst (collect ?attrs ~name f)

let collect_emit ?(attrs = []) ~name ~emit f =
  let stack = stack () in
  let span =
    { name; attrs; start_ns = Clock.now_ns (); dur_ns = 0L; children_rev = [] }
  in
  stack := span :: !stack;
  let finally () =
    (match !stack with
    | top :: rest when top == span -> stack := rest
    | _ -> stack := List.filter (fun s -> s != span) !stack);
    span.dur_ns <- Int64.sub (Clock.now_ns ()) span.start_ns;
    (match !stack with
    | parent :: _ -> parent.children_rev <- span :: parent.children_rev
    | [] -> ());
    emit span
  in
  Fun.protect ~finally f

let add_attr key value =
  match !(stack ()) with
  | [] -> ()
  | top :: _ -> top.attrs <- top.attrs @ [ (key, value) ]

(* ------------------------------------------------------------------ *)
(* Exports *)

let attr_to_json : attr -> Json.t = function
  | `Int i -> Json.Int i
  | `Float f -> Json.Float f
  | `String s -> Json.String s
  | `Bool b -> Json.Bool b

let us_of ns = Int64.to_float ns /. 1e3

(* Complete ("ph":"X") events for one span tree, timestamps relative
   to [base], appended (in depth-first order) onto [acc] reversed. *)
let chrome_events ~pid ~tid ~base root acc =
  let events = ref acc in
  let rec emit span =
    let event =
      Json.Obj
        [
          ("name", Json.String span.name);
          ("cat", Json.String "dprle");
          ("ph", Json.String "X");
          ("ts", Json.Float (us_of (Int64.sub span.start_ns base)));
          ("dur", Json.Float (us_of span.dur_ns));
          ("pid", Json.Int pid);
          ("tid", Json.Int tid);
          ("args", Json.Obj (List.map (fun (k, v) -> (k, attr_to_json v)) span.attrs));
        ]
    in
    events := event :: !events;
    List.iter emit (children span)
  in
  emit root;
  !events

let trace_of_events events_rev =
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev events_rev));
      ("displayTimeUnit", Json.String "ms");
    ]

let to_chrome_json ?(pid = 1) ?(tid = 1) root =
  trace_of_events (chrome_events ~pid ~tid ~base:root.start_ns root [])

let to_chrome_string ?pid ?tid root = Json.to_string (to_chrome_json ?pid ?tid root)

(* Multi-lane export: the main tree on tid 1 plus one lane per worker
   tree, all sharing a common time base (the earliest start across the
   trees) so concurrent work lines up in the viewer. Each lane gets a
   ["thread_name"] metadata event so Perfetto shows the worker label
   instead of a bare tid. *)
let to_chrome_json_lanes ?(pid = 1) ~lanes root =
  let base =
    List.fold_left
      (fun acc (_, s) -> if Int64.compare s.start_ns acc < 0 then s.start_ns else acc)
      root.start_ns lanes
  in
  let thread_name ~tid label =
    Json.Obj
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.String label) ]);
      ]
  in
  let events = chrome_events ~pid ~tid:1 ~base root [ thread_name ~tid:1 "main" ] in
  let events, _ =
    List.fold_left
      (fun (acc, tid) (label, span) ->
        (chrome_events ~pid ~tid ~base span (thread_name ~tid label :: acc), tid + 1))
      (events, 2) lanes
  in
  trace_of_events events

let pp_duration ppf ns =
  let ns = Int64.to_float ns in
  if ns >= 1e9 then Fmt.pf ppf "%.3fs" (ns /. 1e9)
  else if ns >= 1e6 then Fmt.pf ppf "%.3fms" (ns /. 1e6)
  else if ns >= 1e3 then Fmt.pf ppf "%.1fus" (ns /. 1e3)
  else Fmt.pf ppf "%.0fns" ns

let pp_attr ppf (k, v) =
  match v with
  | `Int i -> Fmt.pf ppf "%s=%d" k i
  | `Float f -> Fmt.pf ppf "%s=%g" k f
  | `String s -> Fmt.pf ppf "%s=%s" k s
  | `Bool b -> Fmt.pf ppf "%s=%b" k b

let pp_tree ppf root =
  let rec go indent span =
    Fmt.pf ppf "%s%s  %a" indent span.name pp_duration span.dur_ns;
    List.iter (fun a -> Fmt.pf ppf " %a" pp_attr a) span.attrs;
    Fmt.pf ppf "@.";
    List.iter (go (indent ^ "  ")) (children span)
  in
  go "" root
