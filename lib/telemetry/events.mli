(** Append-only JSONL event log ([--events FILE]).

    One self-describing JSON object per line; every record carries
    [("schema", "dprle-events/1")], an [event] kind, and a process-wide
    [seq] number. Lines are written and flushed atomically under a
    mutex, so worker domains can emit concurrently and a crash leaves
    all previously-emitted lines intact. *)

val schema : string

type t

val create : out_channel -> t

(** [emit t ~kind fields] writes one line; [schema], [event], and
    [seq] are prepended to [fields]. *)
val emit : t -> kind:string -> (string * Json.t) list -> unit

val close : t -> unit

(** No-op when no global sink is installed. *)
val emit_global : kind:string -> (string * Json.t) list -> unit

(** [with_sink (Some path) f] opens [path], installs it as the global
    sink, runs [f], and closes/uninstalls on the way out (exception or
    not). [with_sink None f] just runs [f]. *)
val with_sink : string option -> (unit -> 'a) -> 'a
