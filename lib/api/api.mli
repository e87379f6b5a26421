(** The versioned wire API ([dprle-wire/1]): one request/response
    vocabulary and one total JSON codec shared by the {!Serve} daemon,
    the [dprle-loadgen] client, and [dprle batch --wire] — the CLI and
    the service literally cannot drift, because they link this module.

    A {e frame} is one JSON object on one line (the emitter escapes
    every control character, so a frame never contains a raw newline).
    Every frame carries [("schema", "dprle-wire/1")]; decoding rejects
    any other version with a structured error instead of guessing.

    The codec is {e total}: [decode_*] never raises. Anything that is
    not a well-formed current-version frame comes back as a {!reject}
    carrying the machine-matchable {!Response.error_code} the server
    answers with (oversized frames are rejected {e before} parsing, so
    a hostile payload costs [max_bytes] of buffer and nothing else). *)

val schema : string
(** ["dprle-wire/1"]. *)

val default_max_frame_bytes : int
(** 1 MiB — the decode-side frame cap when none is given. *)

module Request : sig
  type solve_params = {
    system : string;  (** constraint system, [Sysparse] concrete syntax *)
    max_solutions : int;  (** default 256 *)
    combination_limit : int;  (** default 4096 *)
    witnesses : bool;
        (** include per-variable shortest witness strings (default
            false — extracting a witness is a search per variable on
            top of the solve) *)
  }

  type webcheck_params = {
    program : string;  (** mini-PHP source *)
    attack : string;  (** attack-language name ({!Webapp.Attack.lookup}) *)
    max_paths : int;
        (** path exploration bound, default 4096 (webcheck's
            [--max-paths] default) *)
    static_prune : bool;  (** run the dataflow prune first (default true) *)
  }

  type kind =
    | Solve of solve_params
    | Check of string  (** satisfiability only; payload is the system *)
    | Lint of string  (** every pre-solve static check; payload is the system *)
    | Webcheck of webcheck_params
    | Stats  (** telemetry snapshot of the serving process *)
    | Shutdown  (** drain in-flight work, then exit *)

  type t = {
    id : string;  (** echoed verbatim in the response *)
    kind : kind;
    budget_ms : int option;
        (** per-request wall-clock budget; doubles as the admission
            deadline — the daemon rejects the request up front when
            the queue's projected wait already exceeds it *)
    budget_states : int option;  (** per-request materialized-state cap *)
  }

  val kind_name : kind -> string
  (** ["solve"], ["check"], … — the wire discriminator. *)

  val solve_defaults : system:string -> solve_params
  val webcheck_defaults : program:string -> webcheck_params
end

module Response : sig
  (** Structured admission-control rejection (the 429 of the wire
      protocol): how long the queue ahead is projected to take, and
      how deep it was. *)
  type rejection = { projected_wait_ms : int; queue_depth : int }

  type error_code =
    | Parse_error  (** the payload system/program did not parse *)
    | Budget_exceeded  (** the per-request budget fired mid-solve *)
    | Over_capacity of rejection  (** rejected at admission *)
    | Malformed  (** frame is not a JSON object of the expected shape *)
    | Too_large  (** frame exceeds the size cap *)
    | Bad_version  (** schema tag is not [dprle-wire/1] *)
    | Unknown_kind  (** request kind outside the vocabulary *)
    | Internal  (** handler raised; the daemon survives, the request dies *)

  type finding = { severity : string; check : string; message : string }

  type sink = {
    path_id : int;  (** -1 for a sink proved safe statically *)
    sink_index : int;
    sink_id : int;
    status : string;
        (** [vulnerable], [no_exploit], [proved_safe_statically], or
            [budget_exceeded] *)
    exploit : (string * string) list;  (** input name → exploit string *)
  }

  (** Mirrors [Solver.run]'s result type on the wire: [Sat]/[Unsat]
      are the two sides of its [outcome]; [Error Budget_exceeded] is
      its error arm; the rest cover the other request kinds. *)
  type payload =
    | Sat of { solutions : int; witnesses : (string * string) list list }
    | Unsat of { reason : string; core : string list }
        (** [core]: the analyzer's minimal refuting constraint subset,
            rendered; omitted from the wire frame when empty, so
            pre-core clients decode unchanged *)
    | Lint_report of { findings : finding list }
    | Webcheck_report of {
        sinks : sink list;
        vulnerable : int;
        paths_truncated : bool;
      }
    | Stats_report of { requests : int; counters : (string * int) list }
    | Shutdown_ack of { drained : int }
    | Error of { code : error_code; message : string }

  (** Per-request observability, filled by the handler from a
      before/after metrics diff taken in the worker that ran the
      request: the warm-store story, measured per request. *)
  type obs = { elapsed_us : int; intern_hits : int; opcache_hits : int }

  type t = { id : string; payload : payload; obs : obs }

  val no_obs : obs
  (** All zeroes — for responses synthesized outside a worker. *)

  val payload_name : payload -> string
  (** The wire discriminator: ["sat"], ["unsat"], ["lint"], … *)
end

(** A decode failure, phrased as the error the server answers with. *)
type reject = { code : Response.error_code; message : string }

val error_code_name : Response.error_code -> string
val pp_reject : reject Fmt.t

val encode_request : Request.t -> string
(** One line, no trailing newline. *)

val decode_request : ?max_bytes:int -> string -> (Request.t, reject) result

val encode_response : Response.t -> string

val decode_response : ?max_bytes:int -> string -> (Response.t, reject) result

val error_response : id:string -> reject -> Response.t
(** The frame a server sends for an undecodable request ([id] is [""]
    when the frame was too broken to recover one). *)
