(** The gates of the bench record (BENCH_dprle.json), backing
    [dprle-bench --diff OLD NEW].

    Three kinds of check, each written once:
    - {!facts}: what a record says on any host (an ablation's arms
      agree on verdicts, the cached arm hits the store, a wall clock
      is positive, …). The bench checks them as it records each arm,
      so no baseline that breaks one is written; [run] checks them on
      the new document.
    - The baseline diff. Deterministic content — the schema string,
      the experiment set, per-experiment fields, integer fields and
      counters, histogram counts and bucket occupancies, timer call
      counts — is hard-gated: any drift is a behaviour change.
      [seconds*] fields are flagged past 1.5x plus a 5 ms noise floor,
      as warnings under [wall_warn_only]. Timer nanoseconds,
      timestamps and derived floats are never diffed. An experiment
      whose values are nondeterministic (bechamel, [serve/*], and
      [parallel/*] on fewer than 4 cores) has only its field set
      compared.
    - The wall-clock gates: in-process ratios whose bounds hold on a
      loaded host, hard even under [wall_warn_only]. *)

type severity = Hard | Warn

type finding = {
  experiment : string;
  field : string;
  detail : string;
  severity : severity;
}

type report = {
  findings : finding list;
  compared : int;  (** experiments whose values were diffed *)
  shape_only : string list;  (** experiments whose field set alone was *)
}

(** Every fact the records of an [experiments] array break, as hard
    findings. A fact about an experiment absent from the array is not
    checked: the baseline diff reports the absence. *)
val facts : Telemetry.Json.t list -> finding list

(** [run ~cores ~wall_warn_only ~old_doc ~new_doc] compares two parsed
    bench documents on a host with [cores] cores: [parallel/*] is
    diffed and speed-gated only when [cores >= 4]. [Error _] when
    either document lacks an [experiments] array. *)
val run :
  cores:int ->
  wall_warn_only:bool ->
  old_doc:Telemetry.Json.t ->
  new_doc:Telemetry.Json.t ->
  (report, string) result

val hard_count : report -> int
val pp_finding : finding Fmt.t
val pp_report : report Fmt.t
