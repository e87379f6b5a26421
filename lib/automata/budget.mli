(** Per-job resource budgets for the automata kernels.

    A {!t} bounds one job's work along the two axes that blow up on
    the paper's §3.5 worst cases: wall-clock time and the number of
    product/subset states materialized by {!Ops.intersect},
    {!Dfa.of_nfa}, and the on-the-fly inclusion check in {!Lang}. The
    hot loops call {!tick} (per BFS pop) and {!charge_states} (per
    materialized state) unconditionally; both are near-free no-ops
    while no budget is installed, so single-shot solves pay nothing.

    Budgets are {e ambient}: {!with_budget}/{!run} install the budget
    in domain-local storage for the dynamic extent of the callback.
    Each engine worker domain therefore enforces exactly the budget of
    the job it is currently running. Exhaustion raises {!Exceeded},
    which unwinds the solve (interned-store state stays consistent:
    caches only ever hold completed results); {!run} catches it at the
    boundary and returns the structured {!stop}. Budgets nest — an
    inner [with_budget] shadows the outer one for its extent. *)

(** Why a budget stopped the job. *)
type stop =
  | Timeout  (** the wall-clock deadline passed *)
  | Out_of_states  (** the materialized-state cap was crossed *)
  | Combination_limit
      (** the solver's cap on ε-cut combinations per CI-group cut the
          enumeration short before any combination survived: the
          verdict is unknown, not [unsat] *)

exception Exceeded of stop

type t

(** [make ?wall_ms ?max_states ()]: deadline in milliseconds of
    wall-clock time from installation, and/or a cap on states
    materialized by product/subset constructions. Omitted axes are
    unbounded. *)
val make : ?wall_ms:int -> ?max_states:int -> unit -> t

(** No limits. Installing it is a no-op. *)
val unlimited : t

val is_unlimited : t -> bool

(** [run b f] runs [f] under budget [b]; [Error stop] if the budget
    (or a nested one) was exhausted. *)
val run : t -> (unit -> 'a) -> ('a, stop) result

(** [with_budget b f] installs [b] for the extent of [f], restoring
    the previously-installed budget (if any) on exit. {!Exceeded}
    propagates to the caller. *)
val with_budget : t -> (unit -> 'a) -> 'a

(** {1 Hooks — called by the automata kernels} *)

(** Cheap progress heartbeat: checks the deadline every 64th call.
    No-op when no budget is installed in the calling domain. *)
val tick : unit -> unit

(** Account for [n] freshly materialized states; raises {!Exceeded}
    [Out_of_states] when the cap is crossed, and doubles as a {!tick}.
    No-op when no budget is installed in the calling domain. *)
val charge_states : int -> unit

val pp_stop : stop Fmt.t

val stop_to_string : stop -> string
