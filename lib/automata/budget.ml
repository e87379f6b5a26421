(* Ambient per-job resource budgets. The active budget lives in
   domain-local storage so engine workers each enforce their own job's
   budget with no synchronization; the automata hot loops call the
   [tick]/[charge_states] hooks unconditionally and pay one DLS read
   plus a countdown decrement when no budget is installed. *)

type stop = Timeout | Out_of_states | Combination_limit

exception Exceeded of stop

type t = { wall_ns : int64 option; max_states : int option }

let unlimited = { wall_ns = None; max_states = None }

let make ?wall_ms ?max_states () =
  {
    wall_ns = Option.map (fun ms -> Int64.of_float (float_of_int ms *. 1e6)) wall_ms;
    max_states;
  }

let is_unlimited b = b.wall_ns = None && b.max_states = None

type active = {
  deadline_ns : int64 option;
  cap : int option;
  mutable states : int;
  mutable pulse : int; (* countdown to the next deadline check *)
}

let slot : active option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(* How many ticks/charged states between deadline checks. Clock reads
   are ~25ns; BFS pops are a few ns, so checking every pop would
   dominate. 64 keeps the overshoot past a deadline far below a
   millisecond on any input we solve. *)
let stride = 64

let check a =
  match a.deadline_ns with
  | Some d when Int64.compare (Telemetry.Clock.now_ns ()) d > 0 ->
      raise (Exceeded Timeout)
  | _ -> ()

let tick () =
  match !(Domain.DLS.get slot) with
  | None -> ()
  | Some a ->
      a.pulse <- a.pulse - 1;
      if a.pulse <= 0 then begin
        a.pulse <- stride;
        check a
      end

let charge_states n =
  match !(Domain.DLS.get slot) with
  | None -> ()
  | Some a ->
      a.states <- a.states + n;
      (match a.cap with
      | Some cap when a.states > cap -> raise (Exceeded Out_of_states)
      | _ -> ());
      a.pulse <- a.pulse - n;
      if a.pulse <= 0 then begin
        a.pulse <- stride;
        check a
      end

let with_budget b f =
  if is_unlimited b then f ()
  else begin
    let r = Domain.DLS.get slot in
    let saved = !r in
    let deadline =
      Option.map (fun w -> Int64.add (Telemetry.Clock.now_ns ()) w) b.wall_ns
    in
    r := Some { deadline_ns = deadline; cap = b.max_states; states = 0; pulse = 0 };
    Fun.protect ~finally:(fun () -> r := saved) f
  end

let run b f =
  match with_budget b f with v -> Ok v | exception Exceeded stop -> Error stop

let pp_stop ppf = function
  | Timeout -> Fmt.string ppf "timeout"
  | Out_of_states -> Fmt.string ppf "state budget exhausted"
  | Combination_limit -> Fmt.string ppf "combination limit"

let stop_to_string stop = Fmt.str "%a" pp_stop stop
