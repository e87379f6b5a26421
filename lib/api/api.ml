module Json = Telemetry.Json

let schema = "dprle-wire/1"
let default_max_frame_bytes = 1 lsl 20

module Request = struct
  type solve_params = {
    system : string;
    max_solutions : int;
    combination_limit : int;
    witnesses : bool;
  }

  type webcheck_params = {
    program : string;
    attack : string;
    max_paths : int;
    static_prune : bool;
  }

  type kind =
    | Solve of solve_params
    | Check of string
    | Lint of string
    | Webcheck of webcheck_params
    | Stats
    | Shutdown

  type t = {
    id : string;
    kind : kind;
    budget_ms : int option;
    budget_states : int option;
  }

  let kind_name = function
    | Solve _ -> "solve"
    | Check _ -> "check"
    | Lint _ -> "lint"
    | Webcheck _ -> "webcheck"
    | Stats -> "stats"
    | Shutdown -> "shutdown"

  let solve_defaults ~system =
    { system; max_solutions = 256; combination_limit = 4096; witnesses = false }

  let webcheck_defaults ~program =
    { program; attack = "quote"; max_paths = 4096; static_prune = true }
end

module Response = struct
  type rejection = { projected_wait_ms : int; queue_depth : int }

  type error_code =
    | Parse_error
    | Budget_exceeded
    | Over_capacity of rejection
    | Malformed
    | Too_large
    | Bad_version
    | Unknown_kind
    | Internal

  type finding = { severity : string; check : string; message : string }

  type sink = {
    path_id : int;
    sink_index : int;
    sink_id : int;
    status : string;
    exploit : (string * string) list;
  }

  type payload =
    | Sat of { solutions : int; witnesses : (string * string) list list }
    | Unsat of { reason : string; core : string list }
    | Lint_report of { findings : finding list }
    | Webcheck_report of {
        sinks : sink list;
        vulnerable : int;
        paths_truncated : bool;
      }
    | Stats_report of { requests : int; counters : (string * int) list }
    | Shutdown_ack of { drained : int }
    | Error of { code : error_code; message : string }

  type obs = { elapsed_us : int; intern_hits : int; opcache_hits : int }

  type t = { id : string; payload : payload; obs : obs }

  let no_obs = { elapsed_us = 0; intern_hits = 0; opcache_hits = 0 }

  let payload_name = function
    | Sat _ -> "sat"
    | Unsat _ -> "unsat"
    | Lint_report _ -> "lint"
    | Webcheck_report _ -> "webcheck"
    | Stats_report _ -> "stats"
    | Shutdown_ack _ -> "shutdown_ack"
    | Error _ -> "error"
end

type reject = { code : Response.error_code; message : string }

let error_code_name : Response.error_code -> string = function
  | Parse_error -> "parse_error"
  | Budget_exceeded -> "budget_exceeded"
  | Over_capacity _ -> "over_capacity"
  | Malformed -> "malformed"
  | Too_large -> "too_large"
  | Bad_version -> "bad_version"
  | Unknown_kind -> "unknown_kind"
  | Internal -> "internal"

let pp_reject ppf r =
  Fmt.pf ppf "%s: %s" (error_code_name r.code) r.message

let error_response ~id (r : reject) : Response.t =
  {
    id;
    payload = Response.Error { code = r.code; message = r.message };
    obs = Response.no_obs;
  }

(* ------------------------------------------------------------------ *)
(* Encoding. Pairs become 2-element JSON lists (JSON has no tuples);
   optional fields are omitted, never null, so decoding treats absence
   as the default.                                                     *)

let pair (k, v) = Json.List [ Json.String k; Json.String v ]

let encode_request (r : Request.t) =
  let payload =
    match r.kind with
    | Request.Solve p ->
        [
          ( "payload",
            Json.Obj
              [
                ("system", Json.String p.Request.system);
                ("max_solutions", Json.Int p.Request.max_solutions);
                ("combination_limit", Json.Int p.Request.combination_limit);
                ("witnesses", Json.Bool p.Request.witnesses);
              ] );
        ]
    | Request.Check system | Request.Lint system ->
        [ ("payload", Json.Obj [ ("system", Json.String system) ]) ]
    | Request.Webcheck p ->
        [
          ( "payload",
            Json.Obj
              [
                ("program", Json.String p.Request.program);
                ("attack", Json.String p.Request.attack);
                ("max_paths", Json.Int p.Request.max_paths);
                ("static_prune", Json.Bool p.Request.static_prune);
              ] );
        ]
    | Request.Stats | Request.Shutdown -> []
  in
  let opt name = function
    | None -> []
    | Some v -> [ (name, Json.Int v) ]
  in
  Json.to_string
    (Json.Obj
       ([
          ("schema", Json.String schema);
          ("id", Json.String r.id);
          ("kind", Json.String (Request.kind_name r.kind));
        ]
       @ opt "budget_ms" r.budget_ms
       @ opt "budget_states" r.budget_states
       @ payload))

let encode_response (r : Response.t) =
  let payload_fields =
    match r.payload with
    | Response.Sat { solutions; witnesses } ->
        [
          ("solutions", Json.Int solutions);
          ( "witnesses",
            Json.List (List.map (fun w -> Json.List (List.map pair w)) witnesses)
          );
        ]
    | Response.Unsat { reason; core } ->
        (* the minimal-core field rides along only when the solver
           produced one, so pre-core clients see unchanged frames *)
        ("reason", Json.String reason)
        ::
        (if core = [] then []
         else [ ("core", Json.List (List.map (fun c -> Json.String c) core)) ])
    | Response.Lint_report { findings } ->
        [
          ( "findings",
            Json.List
              (List.map
                 (fun (f : Response.finding) ->
                   Json.Obj
                     [
                       ("severity", Json.String f.severity);
                       ("check", Json.String f.check);
                       ("message", Json.String f.message);
                     ])
                 findings) );
        ]
    | Response.Webcheck_report { sinks; vulnerable; paths_truncated } ->
        [
          ( "sinks",
            Json.List
              (List.map
                 (fun (s : Response.sink) ->
                   Json.Obj
                     [
                       ("path", Json.Int s.path_id);
                       ("sink", Json.Int s.sink_index);
                       ("sink_id", Json.Int s.sink_id);
                       ("status", Json.String s.status);
                       ("exploit", Json.List (List.map pair s.exploit));
                     ])
                 sinks) );
          ("vulnerable", Json.Int vulnerable);
          ("paths_truncated", Json.Bool paths_truncated);
        ]
    | Response.Stats_report { requests; counters } ->
        [
          ("requests", Json.Int requests);
          ( "counters",
            Json.List
              (List.map
                 (fun (k, v) -> Json.List [ Json.String k; Json.Int v ])
                 counters) );
        ]
    | Response.Shutdown_ack { drained } -> [ ("drained", Json.Int drained) ]
    | Response.Error { code; message } ->
        [
          ("code", Json.String (error_code_name code));
          ("message", Json.String message);
        ]
        @ (match code with
          | Response.Over_capacity rj ->
              [
                ("projected_wait_ms", Json.Int rj.Response.projected_wait_ms);
                ("queue_depth", Json.Int rj.Response.queue_depth);
              ]
          | _ -> [])
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String schema);
         ("id", Json.String r.id);
         ("result", Json.String (Response.payload_name r.payload));
         ("elapsed_us", Json.Int r.obs.Response.elapsed_us);
         ( "store",
           Json.Obj
             [
               ("intern_hit", Json.Int r.obs.Response.intern_hits);
               ("opcache_hit", Json.Int r.obs.Response.opcache_hits);
             ] );
         ("payload", Json.Obj payload_fields);
       ])

(* ------------------------------------------------------------------ *)
(* Decoding: total. The reject [code] is exactly what the server
   answers with, so every failure mode below is distinguishable on
   the wire (and unit-testable).                                       *)

let reject code fmt = Fmt.kstr (fun message -> Error { code; message }) fmt

let ( let* ) = Result.bind

let parse_frame ?(max_bytes = default_max_frame_bytes) line =
  if String.length line > max_bytes then
    reject Response.Too_large "frame of %d bytes exceeds the %d-byte cap"
      (String.length line) max_bytes
  else
    let* doc =
      match Json.of_string line with
      | Ok doc -> Ok doc
      | Error e ->
          reject Response.Malformed "frame is not valid JSON (%s)" e
    in
    let* () =
      match Json.member "schema" doc with
      | Some (Json.String s) when s = schema -> Ok ()
      | Some (Json.String s) ->
          reject Response.Bad_version "frame speaks %S, this server speaks %S"
            s schema
      | _ -> reject Response.Malformed "frame carries no schema tag"
    in
    match doc with
    | Json.Obj _ -> Ok doc
    | _ -> reject Response.Malformed "frame is not a JSON object"

let str_member name doc =
  match Json.member name doc with
  | Some (Json.String s) -> Ok s
  | Some _ -> reject Response.Malformed "field %S is not a string" name
  | None -> reject Response.Malformed "field %S is missing" name

let int_member ~default name doc =
  match Json.member name doc with
  | Some (Json.Int i) -> Ok i
  | Some _ -> reject Response.Malformed "field %S is not an integer" name
  | None -> Ok default

let bool_member ~default name doc =
  match Json.member name doc with
  | Some (Json.Bool b) -> Ok b
  | Some _ -> reject Response.Malformed "field %S is not a boolean" name
  | None -> Ok default

let opt_int_member name doc =
  match Json.member name doc with
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> reject Response.Malformed "field %S is not an integer" name
  | None -> Ok None

let payload_member doc =
  match Json.member "payload" doc with
  | Some (Json.Obj _ as p) -> Ok p
  | Some _ -> reject Response.Malformed "field \"payload\" is not an object"
  | None -> reject Response.Malformed "field \"payload\" is missing"

let decode_request ?max_bytes line =
  let* doc = parse_frame ?max_bytes line in
  let* id = str_member "id" doc in
  let* kind_tag = str_member "kind" doc in
  let* budget_ms = opt_int_member "budget_ms" doc in
  let* budget_states = opt_int_member "budget_states" doc in
  let* kind =
    match kind_tag with
    | "solve" ->
        let* p = payload_member doc in
        let* system = str_member "system" p in
        let d = Request.solve_defaults ~system in
        let* max_solutions =
          int_member ~default:d.Request.max_solutions "max_solutions" p
        in
        let* combination_limit =
          int_member ~default:d.Request.combination_limit "combination_limit" p
        in
        let* witnesses =
          bool_member ~default:d.Request.witnesses "witnesses" p
        in
        Ok
          (Request.Solve
             { system; max_solutions; combination_limit; witnesses })
    | "check" ->
        let* p = payload_member doc in
        let* system = str_member "system" p in
        Ok (Request.Check system)
    | "lint" ->
        let* p = payload_member doc in
        let* system = str_member "system" p in
        Ok (Request.Lint system)
    | "webcheck" ->
        let* p = payload_member doc in
        let* program = str_member "program" p in
        let d = Request.webcheck_defaults ~program in
        let* attack =
          match Json.member "attack" p with
          | Some (Json.String s) -> Ok s
          | Some _ -> reject Response.Malformed "field \"attack\" is not a string"
          | None -> Ok d.Request.attack
        in
        let* max_paths = int_member ~default:d.Request.max_paths "max_paths" p in
        let* static_prune =
          bool_member ~default:d.Request.static_prune "static_prune" p
        in
        Ok (Request.Webcheck { program; attack; max_paths; static_prune })
    | "stats" -> Ok Request.Stats
    | "shutdown" -> Ok Request.Shutdown
    | other ->
        reject Response.Unknown_kind
          "unknown request kind %S (have: solve, check, lint, webcheck, \
           stats, shutdown)"
          other
  in
  Ok { Request.id; kind; budget_ms; budget_states }

let pair_of_json name j =
  match j with
  | Json.List [ Json.String k; Json.String v ] -> Ok (k, v)
  | _ -> reject Response.Malformed "entry of %S is not a [string, string] pair" name

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let list_member name doc =
  match Json.member name doc with
  | Some (Json.List l) -> Ok l
  | Some _ -> reject Response.Malformed "field %S is not a list" name
  | None -> reject Response.Malformed "field %S is missing" name

let req_int_member name doc =
  match Json.member name doc with
  | Some (Json.Int i) -> Ok i
  | _ -> reject Response.Malformed "field %S is not an integer" name

let decode_response ?max_bytes line =
  let* doc = parse_frame ?max_bytes line in
  let* id = str_member "id" doc in
  let* tag = str_member "result" doc in
  let* elapsed_us = int_member ~default:0 "elapsed_us" doc in
  let* intern_hits, opcache_hits =
    match Json.member "store" doc with
    | Some (Json.Obj _ as store) ->
        let* ih = int_member ~default:0 "intern_hit" store in
        let* oh = int_member ~default:0 "opcache_hit" store in
        Ok (ih, oh)
    | Some _ -> reject Response.Malformed "field \"store\" is not an object"
    | None -> Ok (0, 0)
  in
  let* p = payload_member doc in
  let* payload =
    match tag with
    | "sat" ->
        let* solutions = req_int_member "solutions" p in
        let* ws = list_member "witnesses" p in
        let* witnesses =
          map_result
            (function
              | Json.List entries -> map_result (pair_of_json "witnesses") entries
              | _ -> reject Response.Malformed "witness entry is not a list")
            ws
        in
        Ok (Response.Sat { solutions; witnesses })
    | "unsat" ->
        let* reason = str_member "reason" p in
        let* core =
          match Json.member "core" p with
          | None -> Ok []
          | Some (Json.List l) ->
              map_result
                (function
                  | Json.String s -> Ok s
                  | _ -> reject Response.Malformed "core entry is not a string")
                l
          | Some _ -> reject Response.Malformed "field \"core\" is not a list"
        in
        Ok (Response.Unsat { reason; core })
    | "lint" ->
        let* fs = list_member "findings" p in
        let* findings =
          map_result
            (fun f ->
              let* severity = str_member "severity" f in
              let* check = str_member "check" f in
              let* message = str_member "message" f in
              Ok { Response.severity; check; message })
            fs
        in
        Ok (Response.Lint_report { findings })
    | "webcheck" ->
        let* ss = list_member "sinks" p in
        let* sinks =
          map_result
            (fun s ->
              let* path_id = req_int_member "path" s in
              let* sink_index = req_int_member "sink" s in
              let* sink_id = req_int_member "sink_id" s in
              let* status = str_member "status" s in
              let* es = list_member "exploit" s in
              let* exploit = map_result (pair_of_json "exploit") es in
              Ok { Response.path_id; sink_index; sink_id; status; exploit })
            ss
        in
        let* vulnerable = req_int_member "vulnerable" p in
        let* paths_truncated = bool_member ~default:false "paths_truncated" p in
        Ok (Response.Webcheck_report { sinks; vulnerable; paths_truncated })
    | "stats" ->
        let* requests = req_int_member "requests" p in
        let* cs = list_member "counters" p in
        let* counters =
          map_result
            (function
              | Json.List [ Json.String k; Json.Int v ] -> Ok (k, v)
              | _ ->
                  reject Response.Malformed
                    "counter entry is not a [string, int] pair")
            cs
        in
        Ok (Response.Stats_report { requests; counters })
    | "shutdown_ack" ->
        let* drained = req_int_member "drained" p in
        Ok (Response.Shutdown_ack { drained })
    | "error" ->
        let* code_tag = str_member "code" p in
        let* message = str_member "message" p in
        let* code =
          match code_tag with
          | "parse_error" -> Ok Response.Parse_error
          | "budget_exceeded" -> Ok Response.Budget_exceeded
          | "over_capacity" ->
              let* projected_wait_ms = req_int_member "projected_wait_ms" p in
              let* queue_depth = req_int_member "queue_depth" p in
              Ok (Response.Over_capacity { projected_wait_ms; queue_depth })
          | "malformed" -> Ok Response.Malformed
          | "too_large" -> Ok Response.Too_large
          | "bad_version" -> Ok Response.Bad_version
          | "unknown_kind" -> Ok Response.Unknown_kind
          | "internal" -> Ok Response.Internal
          | other -> reject Response.Malformed "unknown error code %S" other
        in
        Ok (Response.Error { code; message })
    | other -> reject Response.Malformed "unknown result tag %S" other
  in
  Ok
    {
      Response.id;
      payload;
      obs = { Response.elapsed_us; intern_hits; opcache_hits };
    }
