module Budget = Automata.Budget
module Span = Telemetry.Span
module Snapshot = Telemetry.Metrics.Snapshot

type failure = { message : string; backtrace : string option }

type 'a outcome =
  | Done of 'a
  | Budget_exceeded of Budget.stop
  | Failed of failure

type 'a job_result = {
  index : int;
  outcome : 'a outcome;
  elapsed_ns : int64;
  worker : int;
}

type stats = {
  workers : int;
  jobs : int;
  wall_ns : int64;
  worker_spans : (string * Span.t) list;
}

let default_jobs () = Domain.recommended_domain_count ()

let pp_outcome pp_done ppf = function
  | Done v -> pp_done ppf v
  | Budget_exceeded stop -> Fmt.pf ppf "budget exceeded: %a" Budget.pp_stop stop
  | Failed f -> Fmt.pf ppf "internal failure: %s" f.message

let failure_of_exn e =
  (* read the backtrace before anything else can raise over it *)
  let backtrace =
    if Printexc.backtrace_status () then
      match Printexc.get_backtrace () with "" -> None | bt -> Some bt
    else None
  in
  { message = Printexc.to_string e; backtrace }

(* One job, fully isolated: its own budget window, and any exception it
   leaks becomes [Failed] so the rest of the batch still completes. *)
let run_job ~budget ~f ~worker index item =
  let t0 = Telemetry.Clock.now_ns () in
  let outcome =
    match Budget.run budget (fun () -> f worker item) with
    | Ok v -> Done v
    | Error stop -> Budget_exceeded stop
    | exception e -> Failed (failure_of_exn e)
  in
  {
    index;
    outcome;
    elapsed_ns = Int64.sub (Telemetry.Clock.now_ns ()) t0;
    worker;
  }

module Pool = struct
  (* Long-lived worker domains parked on a condition variable between
     batches. The payoff over spawn-per-batch is the warm DLS state:
     each worker keeps its Automata.Store intern/memo tables across
     batches, so constants re-used by consecutive batches are cache
     hits instead of rebuilds.

     Coordination is a single mutex + two conditions. A batch is
     (sequence number, body); workers remember the last sequence they
     ran so a broadcast can never make them run the same batch twice.
     [map] is the only producer and waits for all workers to finish
     before returning, so at most one batch is ever outstanding. *)
  type t = {
    name : string;
    size : int;
    mutex : Mutex.t;
    work : Condition.t; (* new batch posted, or stop *)
    idle : Condition.t; (* all workers finished the current batch *)
    mutable batch : (int * (int -> unit)) option;
    mutable stop : bool;
    mutable finished : int;
    mutable seq : int;
    mutable domains : unit Domain.t list; (* emptied by [shutdown] *)
  }

  let worker_loop t w =
    let rec go last =
      let task =
        Mutex.lock t.mutex;
        let rec wait () =
          if t.stop then None
          else
            match t.batch with
            | Some (s, body) when s <> last -> Some (s, body)
            | _ ->
                Condition.wait t.work t.mutex;
                wait ()
        in
        let r = wait () in
        Mutex.unlock t.mutex;
        r
      in
      match task with
      | None -> ()
      | Some (s, body) ->
          (* [body] traps its own exceptions; nothing may escape here,
             or the whole pool would wedge waiting on [finished]. *)
          body w;
          Mutex.lock t.mutex;
          t.finished <- t.finished + 1;
          if t.finished = t.size then Condition.broadcast t.idle;
          Mutex.unlock t.mutex;
          go s
    in
    go 0

  let create ?(name = "pool") ~size () =
    let size = max 1 size in
    let t =
      {
        name;
        size;
        mutex = Mutex.create ();
        work = Condition.create ();
        idle = Condition.create ();
        batch = None;
        stop = false;
        finished = 0;
        seq = 0;
        domains = [];
      }
    in
    t.domains <-
      List.init size (fun w -> Domain.spawn (fun () -> worker_loop t w));
    t

  let size t = t.size
  let alive t = t.domains <> []

  (* Idempotent: the first call joins and empties [domains]; later
     calls see the empty list and return. Every domain is joined even
     if one re-raises a worker exception — the first failure is
     re-raised only after the rest have been joined, so no domain is
     ever leaked. *)
  let shutdown t =
    match t.domains with
    | [] -> ()
    | domains ->
        t.domains <- [];
        Mutex.lock t.mutex;
        t.stop <- true;
        Condition.broadcast t.work;
        Mutex.unlock t.mutex;
        let first = ref None in
        List.iter
          (fun d ->
            match Domain.join d with
            | () -> ()
            | exception e -> (
                match !first with None -> first := Some e | Some _ -> ()))
          domains;
        (match !first with Some e -> raise e | None -> ())

  (* Claim order: indices sorted by descending weight (stable on ties)
     so the most expensive jobs start first and can't strand a lone
     worker at the tail of a skewed mix. Results stay in submission
     order either way. *)
  let claim_order ~weight items =
    let n = Array.length items in
    let order = Array.init n (fun i -> i) in
    (match weight with
    | None -> ()
    | Some wf ->
        let ws = Array.map wf items in
        Array.sort
          (fun a b ->
            match compare ws.(b) ws.(a) with 0 -> compare a b | c -> c)
          order);
    order

  let run_batch t ~budget ~name ~weight ~f items =
    let n = Array.length items in
    let order = claim_order ~weight items in
    (* Slots are disjoint per index and only read after the idle wait
       below, so the plain arrays are race-free. *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let trace = Span.enabled () in
    let spans = Array.make t.size None in
    let snaps = Array.make t.size None in
    let harness_error = Atomic.make None in
    let body w =
      match
        (* The worker's registry is cumulative across batches (that is
           the point of a persistent pool), so hand back a per-batch
           diff — absorbing a raw snapshot would double-count. *)
        let before = Snapshot.of_default () in
        let rec claim () =
          let k = Atomic.fetch_and_add next 1 in
          if k < n then begin
            let i = order.(k) in
            results.(i) <- Some (run_job ~budget ~f ~worker:w i items.(i));
            claim ()
          end
        in
        if trace then begin
          let (), sp =
            Span.collect ~name:(Fmt.str "%s-worker-%d" name w) claim
          in
          spans.(w) <- Some sp
        end
        else claim ();
        snaps.(w) <- Some (Snapshot.diff ~after:(Snapshot.of_default ()) ~before)
      with
      | () -> ()
      | exception e ->
          (* Harness failure (run_job already traps job exceptions):
             remember the first one; unfilled slots surface it below. *)
          ignore (Atomic.compare_and_set harness_error None (Some (failure_of_exn e)))
    in
    Mutex.lock t.mutex;
    t.seq <- t.seq + 1;
    t.finished <- 0;
    t.batch <- Some (t.seq, body);
    Condition.broadcast t.work;
    while t.finished < t.size do
      Condition.wait t.idle t.mutex
    done;
    t.batch <- None;
    Mutex.unlock t.mutex;
    (* Merge every snapshot that was produced; a failed worker simply
       contributes nothing (no partial, half-raised merge). *)
    Array.iter (function Some s -> Snapshot.absorb s | None -> ()) snaps;
    let worker_spans =
      List.filter_map
        (fun w -> Option.map (fun sp -> (Fmt.str "worker-%d" w, sp)) spans.(w))
        (List.init t.size Fun.id)
    in
    let results =
      Array.to_list
        (Array.mapi
           (fun i r ->
             match r with
             | Some r -> r
             | None ->
                 (* claimed-but-crashed or never claimed because a
                    worker died: surface the first harness failure
                    instead of silently dropping the job *)
                 let failure =
                   match Atomic.get harness_error with
                   | Some f -> f
                   | None ->
                       { message = "job abandoned by worker"; backtrace = None }
                 in
                 {
                   index = i;
                   outcome = Failed failure;
                   elapsed_ns = 0L;
                   worker = -1;
                 })
           results)
    in
    (results, worker_spans)

  let map ?(budget = Budget.unlimited) ?name ?weight t ~f items =
    if not (alive t) then invalid_arg "Engine.Pool.map: pool is shut down";
    let items = Array.of_list items in
    let n = Array.length items in
    let t0 = Telemetry.Clock.now_ns () in
    let results, worker_spans =
      if n = 0 then ([], [])
      else
        run_batch t ~budget
          ~name:(Option.value name ~default:t.name)
          ~weight ~f items
    in
    let wall_ns = Int64.sub (Telemetry.Clock.now_ns ()) t0 in
    (results, { workers = t.size; jobs = n; wall_ns; worker_spans })

  let with_pool ?name ~size f =
    let t = create ?name ~size () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end

let map ?jobs ?(budget = Budget.unlimited) ?(name = "batch") ?weight ~f items =
  let n = List.length items in
  let workers =
    min (max 1 (Option.value jobs ~default:(default_jobs ()))) (max 1 n)
  in
  let t0 = Telemetry.Clock.now_ns () in
  if workers = 1 then begin
    (* Inline fast path: runs in the calling domain, so spans nest
       into the caller's open trace and the caller's store is used
       directly. *)
    let results =
      List.mapi (fun i item -> run_job ~budget ~f ~worker:0 i item) items
    in
    let wall_ns = Int64.sub (Telemetry.Clock.now_ns ()) t0 in
    (results, { workers = 1; jobs = n; wall_ns; worker_spans = [] })
  end
  else
    let results, stats =
      Pool.with_pool ~name ~size:workers (fun pool ->
          Pool.map ~budget ~name ?weight pool ~f items)
    in
    (* include spawn + shutdown in the batch wall clock, as the old
       spawn-per-map path did *)
    let wall_ns = Int64.sub (Telemetry.Clock.now_ns ()) t0 in
    (results, { stats with wall_ns })
