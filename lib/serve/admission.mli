(** Deadline-based admission control for the daemon's request queue.

    The rule: a request that carries a [budget_ms] deadline is
    rejected {e before} it is enqueued when the queue's projected wait
    already exceeds that deadline — the client would pay its whole
    budget standing in line and then time out mid-solve anyway, so the
    structured 429-style answer ({!Api.Response.Over_capacity}, with
    the projection that triggered it) is strictly more useful.
    Requests without a deadline are always admitted (subject to the
    server's hard queue cap, which is a separate guard).

    The projection is an exponentially-weighted moving average of
    recent per-request service times (α = 0.2, so a pathological
    outlier decays in a few requests), scaled by the queue depth and
    divided by the worker count. Pure arithmetic, no clock reads —
    unit-testable without a socket in sight. *)

type t

val create : unit -> t

(** Fold one completed request's service time into the EWMA. *)
val observe : t -> service_ns:int64 -> unit

(** Projected queue wait for a request arriving behind [queue_depth]
    pending requests on [workers] workers, in milliseconds (rounded
    up; 0 before any observation). *)
val projected_wait_ms : t -> queue_depth:int -> workers:int -> int

type decision = Admit | Reject of Api.Response.rejection

val decide :
  t -> queue_depth:int -> workers:int -> budget_ms:int option -> decision
