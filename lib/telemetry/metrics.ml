type labels = (string * string) list

(* Labels are canonicalized (sorted by key) so [("a","1");("b","2")]
   and its permutation address the same time series. A list of zero
   or one label is already sorted; every label set the library itself
   uses is one of those. *)
let canon = function
  | ([] | [ _ ]) as labels -> labels
  | labels -> List.sort (fun (a, _) (b, _) -> String.compare a b) labels

type hdata = {
  mutable count : int;
  mutable sum : float;
  mutable vmax : float; (* largest observed value; meaningful when count > 0 *)
  bucket_counts : int array; (* one per bound, plus overflow at the end *)
}

type tdata = {
  mutable t_count : int;
  mutable total_ns : int64;
  mutable self_ns : int64; (* total minus time spent in nested timers *)
  mutable max_ns : int64;
}

type metric =
  | C of (labels, int ref) Hashtbl.t
  | G of (labels, int ref) Hashtbl.t
  | H of float array * (labels, hdata) Hashtbl.t
  | T of (labels, tdata) Hashtbl.t

type registry = (string, metric) Hashtbl.t

let create_registry () : registry = Hashtbl.create 32

(* The default registry is domain-local: library counters declared at
   module-init time resolve their cells per domain at increment time,
   so engine workers count without synchronization. The engine folds
   each worker's numbers back into the spawning domain's registry
   with [Snapshot.absorb] after the join. *)
let default_key : registry Domain.DLS.key = Domain.DLS.new_key create_registry
let default () = Domain.DLS.get default_key

(* Global kill switch for all cost accounting (timers and the store's
   ledger clock reads). Written from the main domain before workers
   spawn — bench flips it to price the instrumentation itself. *)
let timing_flag = Atomic.make true
let set_timing_enabled b = Atomic.set timing_flag b

let register registry name build check =
  match Hashtbl.find_opt registry name with
  | Some existing -> (
      match check existing with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Telemetry.Metrics: %S already registered with another kind"
               name))
  | None ->
      let metric, v = build () in
      Hashtbl.add registry name metric;
      v

let counter_table registry name =
  register registry name
    (fun () ->
      let table = Hashtbl.create 4 in
      (C table, table))
    (function C table -> Some table | _ -> None)

let gauge_table registry name =
  register registry name
    (fun () ->
      let table = Hashtbl.create 4 in
      (G table, table))
    (function G table -> Some table | _ -> None)

let timer_table registry name =
  register registry name
    (fun () ->
      let table = Hashtbl.create 4 in
      (T table, table))
    (function T table -> Some table | _ -> None)

(* The cell of one series, made by [fresh] on first use; [labels] are
   canonical. *)
let find_or_add table labels fresh =
  match Hashtbl.find_opt table labels with
  | Some x -> x
  | None ->
      let x = fresh () in
      Hashtbl.add table labels x;
      x

let fresh_int () = ref 0

(* a histogram cell over [bounds] bucket bounds, plus the overflow *)
let fresh_hdata bounds () =
  { count = 0; sum = 0.; vmax = Float.neg_infinity; bucket_counts = Array.make (bounds + 1) 0 }

let fresh_tdata () = { t_count = 0; total_ns = 0L; self_ns = 0L; max_ns = 0L }

let histogram_table registry ~buckets name =
  register registry name
    (fun () ->
      let table = Hashtbl.create 4 in
      (H (buckets, table), (buckets, table)))
    (function H (b, table) -> Some (b, table) | _ -> None)

(* Where a metric's series live: its table in one registry, plus the
   unlabelled series' cell once that series exists (it is not made
   before its first use, so a metric nobody touched adds no series to
   a snapshot). *)
type 'a cells = { table : (labels, 'a) Hashtbl.t; mutable bare : 'a option }

(* A metric resolves its table once per domain, not per update: a
   [~registry]-pinned metric holds its pinned table, any other metric
   a [Domain.DLS] slot whose initializer looks the table up in that
   domain's default registry on the domain's first use. So an update
   costs a slot read and, for a labelled series, one label hash; the
   registry's name table is never consulted after [make]. Registry
   tables are never replaced or removed, so a resolved table stays
   the registry's. *)
type 'a home = Pinned of 'a cells | Local of 'a cells Domain.DLS.key

let home ?registry resolve =
  match registry with
  | Some reg -> Pinned { table = resolve reg; bare = None }
  | None ->
      (* register in the calling domain now, so a kind conflict fails
         at declaration time *)
      ignore (resolve (default ()));
      Local (Domain.DLS.new_key (fun () -> { table = resolve (default ()); bare = None }))

let cells = function Pinned c -> c | Local key -> Domain.DLS.get key

let find_cell cells labels fresh =
  match labels with
  | [] -> (
      match cells.bare with
      | Some x -> x
      | None ->
          let x = find_or_add cells.table [] fresh in
          cells.bare <- Some x;
          x)
  | labels -> find_or_add cells.table (canon labels) fresh

module Counter = struct
  type t = int ref home

  let make ?registry name : t = home ?registry (fun reg -> counter_table reg name)

  let incr ?(labels = []) t n =
    let r = find_cell (cells t) labels fresh_int in
    r := !r + n

  let value ?(labels = []) t = !(find_cell (cells t) labels fresh_int)
  let total t = Hashtbl.fold (fun _ r acc -> acc + !r) (cells t).table 0
end

module Gauge = struct
  (* Last-value semantics: [set] overwrites, [add] adjusts. Unlike
     counters a gauge may go down; snapshot diffs pass the current
     value through unchanged and [absorb] keeps the maximum across
     domains (the useful cross-worker reading for occupancy-style
     gauges). *)
  type t = int ref home

  let make ?registry name : t = home ?registry (fun reg -> gauge_table reg name)
  let set ?(labels = []) t v = find_cell (cells t) labels fresh_int := v

  let add ?(labels = []) t n =
    let r = find_cell (cells t) labels fresh_int in
    r := !r + n

  let value ?(labels = []) t = !(find_cell (cells t) labels fresh_int)
end

module Histogram = struct
  (* 1-2-5 decades: good resolution for state counts and machine
     sizes, the quantities §3.5 cares about. *)
  let default_buckets =
    [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1e3; 2e3; 5e3; 1e4; 1e5; 1e6 |]

  type t = { buckets : float array; home : hdata home }

  let make ?registry ?(buckets = default_buckets) name : t =
    let buckets = Array.copy buckets in
    Array.sort compare buckets;
    { buckets; home = home ?registry (fun reg -> snd (histogram_table reg ~buckets name)) }

  let observe ?(labels = []) t v =
    let h = find_cell (cells t.home) labels (fresh_hdata (Array.length t.buckets)) in
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v > h.vmax then h.vmax <- v;
    let buckets = t.buckets in
    let rec slot i =
      if i >= Array.length buckets then i else if v <= buckets.(i) then i else slot (i + 1)
    in
    let i = slot 0 in
    h.bucket_counts.(i) <- h.bucket_counts.(i) + 1
  end

module Timer = struct
  type t = tdata home

  let make ?registry name : t = home ?registry (fun reg -> timer_table reg name)
  let cell t labels = find_cell (cells t) labels fresh_tdata

  (* The open-timer stack, one per domain: each frame accumulates the
     time of the timers nested inside it, so a closing timer can book
     [elapsed - children] as self time. Like the span stack this makes
     timers nestable and engine-worker-safe without synchronization. *)
  let frames_key : int64 ref list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let record cell elapsed ~self =
    cell.t_count <- cell.t_count + 1;
    cell.total_ns <- Int64.add cell.total_ns elapsed;
    cell.self_ns <- Int64.add cell.self_ns self;
    if Int64.compare elapsed cell.max_ns > 0 then cell.max_ns <- elapsed

  let time ?(labels = []) t f =
    if not (Atomic.get timing_flag) then f ()
    else begin
      let frames = Domain.DLS.get frames_key in
      let child_acc = ref 0L in
      frames := child_acc :: !frames;
      let t0 = Clock.now_ns () in
      let finally () =
        let elapsed = Int64.sub (Clock.now_ns ()) t0 in
        (frames :=
           match !frames with
           | top :: rest when top == child_acc -> rest
           | other -> List.filter (fun r -> r != child_acc) other);
        (match !frames with
        | parent :: _ -> parent := Int64.add !parent elapsed
        | [] -> ());
        record (cell t labels) elapsed
          ~self:(Int64.max 0L (Int64.sub elapsed !child_acc))
      in
      Fun.protect ~finally f
    end

  (* Record an externally-measured duration. It books as a leaf: full
     duration as self time, and charged as child time to the innermost
     open [time] frame so enclosing self times stay exclusive. *)
  let observe_ns ?(labels = []) t ns =
    if Atomic.get timing_flag then begin
      (match !(Domain.DLS.get frames_key) with
      | parent :: _ -> parent := Int64.add !parent ns
      | [] -> ());
      record (cell t labels) ns ~self:ns
    end

  let count ?(labels = []) t = (cell t labels).t_count
  let total_ns ?(labels = []) t = (cell t labels).total_ns
end

module Snapshot = struct
  type histogram_stat = {
    count : int;
    sum : float;
    max : float; (* largest observed value; [neg_infinity] when count = 0 *)
    buckets : (float * int) list; (* (upper bound, occupancy); +∞ last *)
  }

  type timer_stat = {
    count : int;
    total_ns : int64;
    self_ns : int64;
    max_ns : int64;
  }

  type t = {
    counters : ((string * labels) * int) list;
    gauges : ((string * labels) * int) list;
    histograms : ((string * labels) * histogram_stat) list;
    timers : ((string * labels) * timer_stat) list;
  }

  let take (registry : registry) =
    let counters = ref []
    and gauges = ref []
    and histograms = ref []
    and timers = ref [] in
    Hashtbl.iter
      (fun name metric ->
        match metric with
        | C table ->
            Hashtbl.iter
              (fun labels r -> counters := ((name, labels), !r) :: !counters)
              table
        | G table ->
            Hashtbl.iter
              (fun labels r -> gauges := ((name, labels), !r) :: !gauges)
              table
        | H (bounds, table) ->
            Hashtbl.iter
              (fun labels h ->
                let buckets =
                  List.init
                    (Array.length h.bucket_counts)
                    (fun i ->
                      ( (if i < Array.length bounds then bounds.(i) else Float.infinity),
                        h.bucket_counts.(i) ))
                in
                histograms :=
                  ( (name, labels),
                    { count = h.count; sum = h.sum; max = h.vmax; buckets } )
                  :: !histograms)
              table
        | T table ->
            Hashtbl.iter
              (fun labels d ->
                timers :=
                  ( (name, labels),
                    {
                      count = d.t_count;
                      total_ns = d.total_ns;
                      self_ns = d.self_ns;
                      max_ns = d.max_ns;
                    } )
                  :: !timers)
              table)
      registry;
    let by_key (a, _) (b, _) = compare a b in
    {
      counters = List.sort compare !counters;
      gauges = List.sort compare !gauges;
      histograms = List.sort by_key !histograms;
      timers = List.sort by_key !timers;
    }

  let of_default () = take (default ())

  let diff ~after ~before =
    let counters =
      List.map
        (fun (key, v) ->
          let prior = Option.value (List.assoc_opt key before.counters) ~default:0 in
          (key, v - prior))
        after.counters
    in
    (* gauges are instantaneous readings: the diff of a region is the
       value at its end, not a subtraction *)
    let gauges = after.gauges in
    (* a histogram or timer series with no calls in the region would
       carry nothing but its running max: drop it *)
    let histograms =
      List.filter_map
        (fun ((key, h) : (string * labels) * histogram_stat) ->
          match List.assoc_opt key before.histograms with
          | None -> Some (key, h)
          | Some prior when prior.count = h.count -> None
          | Some prior ->
              Some
              ( key,
                {
                  count = h.count - prior.count;
                  sum = h.sum -. prior.sum;
                  (* max of just the region is not recoverable from two
                     cumulative readings; report the running max *)
                  max = h.max;
                  buckets =
                    List.map2
                      (fun (bound, c) (_, c') -> (bound, c - c'))
                      h.buckets prior.buckets;
                } ))
        after.histograms
    in
    let timers =
      List.filter_map
        (fun ((key, (t : timer_stat)) : (string * labels) * timer_stat) ->
          match List.assoc_opt key before.timers with
          | None -> Some (key, t)
          | Some (prior : timer_stat) when prior.count = t.count -> None
          | Some (prior : timer_stat) ->
              Some
              ( key,
                {
                  count = t.count - prior.count;
                  total_ns = Int64.sub t.total_ns prior.total_ns;
                  self_ns = Int64.sub t.self_ns prior.self_ns;
                  max_ns = t.max_ns (* running max, as for histograms *);
                } ))
        after.timers
    in
    { counters; gauges; histograms; timers }

  (* Fold a worker domain's snapshot into a live registry (the calling
     domain's default unless pinned). Counter and timer series add;
     gauges keep the maximum; histogram series add pointwise when the
     bucket layouts agree (they do for series produced by the same
     declaration) and fall back to count/sum only otherwise. *)
  let absorb ?registry t =
    let reg = match registry with Some r -> r | None -> default () in
    List.iter
      (fun ((name, labels), v) ->
        if v <> 0 then begin
          let r = find_or_add (counter_table reg name) (canon labels) fresh_int in
          r := !r + v
        end)
      t.counters;
    List.iter
      (fun ((name, labels), v) ->
        let r = find_or_add (gauge_table reg name) (canon labels) fresh_int in
        if v > !r then r := v)
      t.gauges;
    List.iter
      (fun ((name, labels), (h : histogram_stat)) ->
        if h.count <> 0 then begin
          let bounds =
            Array.of_list
              (List.filter_map
                 (fun (b, _) -> if b = Float.infinity then None else Some b)
                 h.buckets)
          in
          let _, table = histogram_table reg ~buckets:bounds name in
          let cell =
            find_or_add table (canon labels) (fresh_hdata (List.length h.buckets - 1))
          in
          cell.count <- cell.count + h.count;
          cell.sum <- cell.sum +. h.sum;
          if h.max > cell.vmax then cell.vmax <- h.max;
          if List.length h.buckets = Array.length cell.bucket_counts then
            List.iteri
              (fun i (_, c) -> cell.bucket_counts.(i) <- cell.bucket_counts.(i) + c)
              h.buckets
        end)
      t.histograms;
    List.iter
      (fun ((name, labels), (s : timer_stat)) ->
        if s.count <> 0 then begin
          let cell = find_or_add (timer_table reg name) (canon labels) fresh_tdata in
          cell.t_count <- cell.t_count + s.count;
          cell.total_ns <- Int64.add cell.total_ns s.total_ns;
          cell.self_ns <- Int64.add cell.self_ns s.self_ns;
          if Int64.compare s.max_ns cell.max_ns > 0 then cell.max_ns <- s.max_ns
        end)
      t.timers

  let counters t = List.map (fun ((name, labels), v) -> (name, labels, v)) t.counters
  let gauges t = List.map (fun ((name, labels), v) -> (name, labels, v)) t.gauges

  let histograms t =
    List.map (fun ((name, labels), h) -> (name, labels, h)) t.histograms

  let timers t = List.map (fun ((name, labels), s) -> (name, labels, s)) t.timers

  let counter_value ?(labels = []) t name =
    Option.value (List.assoc_opt (name, canon labels) t.counters) ~default:0

  let counter_total t name =
    List.fold_left
      (fun acc ((n, _), v) -> if String.equal n name then acc + v else acc)
      0 t.counters

  let timer_stat ?(labels = []) t name =
    List.assoc_opt (name, canon labels) t.timers

  let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

  let to_json t =
    let int_series_json ((name, labels), v) =
      Json.Obj
        [ ("name", Json.String name); ("labels", labels_json labels); ("value", Json.Int v) ]
    in
    let histogram_json ((name, labels), (h : histogram_stat)) =
      Json.Obj
        ([
           ("name", Json.String name);
           ("labels", labels_json labels);
           ("count", Json.Int h.count);
           ("sum", Json.Float h.sum);
         ]
        @ (if h.count > 0 then [ ("max", Json.Float h.max) ] else [])
        @ [
            ( "buckets",
              Json.List
                (List.filter_map
                   (fun (bound, c) ->
                     (* zero-count interior buckets are elided for
                        size, but the +Inf overflow bucket is always
                        explicit so tail drift is diffable *)
                     if c = 0 && bound <> Float.infinity then None
                     else
                       Some
                         (Json.Obj
                            [
                              ( "le",
                                if bound = Float.infinity then Json.String "+Inf"
                                else Json.Float bound );
                              ("count", Json.Int c);
                            ]))
                   h.buckets) );
          ])
    in
    let timer_json ((name, labels), (s : timer_stat)) =
      Json.Obj
        [
          ("name", Json.String name);
          ("labels", labels_json labels);
          ("count", Json.Int s.count);
          ("total_ns", Json.Int (Int64.to_int s.total_ns));
          ("self_ns", Json.Int (Int64.to_int s.self_ns));
          ("max_ns", Json.Int (Int64.to_int s.max_ns));
        ]
    in
    Json.Obj
      [
        ("counters", Json.List (List.map int_series_json t.counters));
        ("gauges", Json.List (List.map int_series_json t.gauges));
        ("histograms", Json.List (List.map histogram_json t.histograms));
        ("timers", Json.List (List.map timer_json t.timers));
      ]

  let pp_labels ppf = function
    | [] -> ()
    | labels ->
        Fmt.pf ppf "{%a}"
          Fmt.(list ~sep:(any ",") (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
          labels

  (* Deterministic text dump: counts, sums, and maxima of the
     deterministic series only. Timer durations are wall-clock noise
     and deliberately print as call counts — `dprle profile` and the
     JSON exports carry the nanoseconds. *)
  let pp ppf t =
    List.iter
      (fun ((name, labels), v) -> Fmt.pf ppf "%s%a = %d@." name pp_labels labels v)
      t.counters;
    List.iter
      (fun ((name, labels), v) ->
        Fmt.pf ppf "%s%a = %d (gauge)@." name pp_labels labels v)
      t.gauges;
    List.iter
      (fun ((name, labels), (h : histogram_stat)) ->
        if h.count > 0 then
          Fmt.pf ppf "%s%a: count=%d sum=%g max=%g@." name pp_labels labels h.count
            h.sum h.max
        else Fmt.pf ppf "%s%a: count=0@." name pp_labels labels)
      t.histograms;
    List.iter
      (fun ((name, labels), (s : timer_stat)) ->
        Fmt.pf ppf "%s%a: count=%d@." name pp_labels labels s.count)
      t.timers
end
