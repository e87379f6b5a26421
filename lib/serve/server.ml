module M = Telemetry.Metrics
module Snapshot = M.Snapshot

type listen = Unix_socket of string | Tcp of string * int

let pp_listen ppf = function
  | Unix_socket path -> Fmt.pf ppf "unix:%s" path
  | Tcp (host, port) -> Fmt.pf ppf "tcp:%s:%d" host port

let listen_of_string s =
  match String.index_opt s ':' with
  | None -> Ok (Unix_socket s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" -> Ok (Unix_socket rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error (Fmt.str "tcp address %S needs HOST:PORT" rest)
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p >= 0 && p < 65536 -> Ok (Tcp (host, p))
              | _ -> Error (Fmt.str "bad port %S" port)))
      | _ ->
          (* a bare path with a colon in it is still a socket path *)
          Ok (Unix_socket s))

type config = {
  listen : listen;
  jobs : int;
  max_frame_bytes : int;
  max_queue : int;
  batch_max : int;
}

let default_config listen =
  {
    listen;
    jobs = 1;
    max_frame_bytes = Api.default_max_frame_bytes;
    max_queue = 256;
    batch_max = 32;
  }

type outcome = { served : int; rejected : int; malformed : int }

let c_connections = M.Counter.make "serve.connections"
let c_requests = M.Counter.make "serve.requests"
let c_rejected = M.Counter.make "serve.rejected"
let c_malformed = M.Counter.make "serve.malformed"
let c_disconnects = M.Counter.make "serve.disconnects"
let c_dropped = M.Counter.make "serve.responses.dropped"
let g_queue = M.Gauge.make "serve.queue.depth"

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable http : bool option;
      (* None until the first 4 bytes arrive; [Some true] marks an
         HTTP scraper (first bytes "GET "), answered once and closed *)
  mutable closed : bool;
  cid : int;
}

type state = {
  cfg : config;
  listen_fd : Unix.file_descr;
  pool : Engine.Pool.t;
  adm : Admission.t;
  conns : (int, conn) Hashtbl.t;
  pending : (int * Api.Request.t) Queue.t;
  read_chunk : Bytes.t;
      (* socket reads land here; one per server, since a process may
         run several server loops at once *)
  mutable next_cid : int;
  mutable stop : bool;
  mutable served : int;
  mutable rejected : int;
  mutable malformed : int;
}

let bind_listen = function
  | Unix_socket path ->
      (* a stale socket file from a crashed server blocks bind *)
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      fd

let close_conn st conn =
  if not conn.closed then begin
    conn.closed <- true;
    Hashtbl.remove st.conns conn.cid;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* Writes never kill the server: a peer that closed mid-response just
   loses the response. *)
let write_raw st conn s =
  if not conn.closed then
    try
      let rec go off len =
        if len > 0 then begin
          let n = Unix.write_substring conn.fd s off len in
          go (off + n) (len - n)
        end
      in
      go 0 (String.length s)
    with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
      M.Counter.incr c_disconnects 1;
      close_conn st conn

let respond st conn (resp : Api.Response.t) =
  write_raw st conn (Api.encode_response resp ^ "\n")

let http_metrics st conn =
  let body = Metrics_text.render (Snapshot.of_default ()) in
  let head =
    Printf.sprintf
      "HTTP/1.0 200 OK\r\n\
       Content-Type: text/plain; version=0.0.4\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\
       \r\n"
      (String.length body)
  in
  write_raw st conn (head ^ body);
  close_conn st conn

let count_malformed st = st.malformed <- st.malformed + 1; M.Counter.incr c_malformed 1

let reject_over_capacity st conn (req : Api.Request.t) rejection message =
  st.rejected <- st.rejected + 1;
  M.Counter.incr c_rejected 1;
  respond st conn
    {
      Api.Response.id = req.id;
      payload =
        Api.Response.Error
          { code = Api.Response.Over_capacity rejection; message };
      obs = Api.Response.no_obs;
    }

let handle_frame st conn line =
  if String.trim line = "" then ()
  else
    match Api.decode_request ~max_bytes:st.cfg.max_frame_bytes line with
    | Error rej ->
        count_malformed st;
        respond st conn (Api.error_response ~id:"" rej)
    | Ok req -> (
        M.Counter.incr c_requests
          ~labels:[ ("kind", Api.Request.kind_name req.kind) ]
          1;
        match req.Api.Request.kind with
        | Api.Request.Stats ->
            (* answered in the main domain: its registry holds the
               absorbed per-batch diffs of every worker, so this is the
               cumulative serving-process view *)
            st.served <- st.served + 1;
            respond st conn (Handler.handle ~requests:(st.served - 1) req)
        | Api.Request.Shutdown ->
            st.stop <- true;
            st.served <- st.served + 1;
            respond st conn
              {
                Api.Response.id = req.id;
                payload =
                  Api.Response.Shutdown_ack
                    { drained = Queue.length st.pending };
                obs = Api.Response.no_obs;
              }
        | Api.Request.Solve _ | Api.Request.Check _ | Api.Request.Lint _
        | Api.Request.Webcheck _ -> (
            let queue_depth = Queue.length st.pending in
            if st.stop then
              reject_over_capacity st conn req
                { Api.Response.projected_wait_ms = 0; queue_depth }
                "server is shutting down"
            else if queue_depth >= st.cfg.max_queue then
              reject_over_capacity st conn req
                {
                  Api.Response.projected_wait_ms =
                    Admission.projected_wait_ms st.adm ~queue_depth
                      ~workers:st.cfg.jobs;
                  queue_depth;
                }
                "request queue is full"
            else
              match
                Admission.decide st.adm ~queue_depth ~workers:st.cfg.jobs
                  ~budget_ms:req.budget_ms
              with
              | Admission.Admit ->
                  Queue.push (conn.cid, req) st.pending;
                  M.Gauge.set g_queue (Queue.length st.pending)
              | Admission.Reject rejection ->
                  reject_over_capacity st conn req rejection
                    "projected queue wait exceeds the request deadline"))

let process_buffer st conn =
  if conn.http = None && Buffer.length conn.buf >= 4 then
    conn.http <- Some (String.equal (Buffer.sub conn.buf 0 4) "GET ");
  let rec split () =
    if not conn.closed then begin
      let s = Buffer.contents conn.buf in
      match String.index_opt s '\n' with
      | None ->
          if String.length s > st.cfg.max_frame_bytes then begin
            (* unterminated over-cap line: answer once and cut the
               connection — further bytes of it are unframeable *)
            count_malformed st;
            respond st conn
              (Api.error_response ~id:""
                 {
                   Api.code = Api.Response.Too_large;
                   message =
                     Fmt.str "frame exceeds %d bytes" st.cfg.max_frame_bytes;
                 });
            close_conn st conn
          end
      | Some i ->
          let line = String.sub s 0 i in
          let line =
            if String.length line > 0 && line.[String.length line - 1] = '\r'
            then String.sub line 0 (String.length line - 1)
            else line
          in
          Buffer.clear conn.buf;
          Buffer.add_substring conn.buf s (i + 1) (String.length s - i - 1);
          (match conn.http with
          | Some true -> http_metrics st conn
          | _ -> handle_frame st conn line);
          split ()
    end
  in
  split ()

let conn_read st conn =
  match Unix.read conn.fd st.read_chunk 0 (Bytes.length st.read_chunk) with
  | 0 ->
      M.Counter.incr c_disconnects 1;
      close_conn st conn
  | n ->
      Buffer.add_subbytes conn.buf st.read_chunk 0 n;
      process_buffer st conn
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
      M.Counter.incr c_disconnects 1;
      close_conn st conn
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

let accept_conn st =
  match Unix.accept st.listen_fd with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | fd, _addr ->
      M.Counter.incr c_connections 1;
      let cid = st.next_cid in
      st.next_cid <- cid + 1;
      Hashtbl.replace st.conns cid
        { fd; buf = Buffer.create 256; http = None; closed = false; cid }

(* Drain up to [batch_max] queued requests through the pool. Runs
   between selects; responses go out as soon as the batch returns.
   With the default single worker every request lands in the same
   domain-local store — the warm path the whole daemon exists for. *)
let dispatch st =
  if not (Queue.is_empty st.pending) then begin
    let n = min st.cfg.batch_max (Queue.length st.pending) in
    let batch = List.init n (fun _ -> Queue.pop st.pending) in
    M.Gauge.set g_queue (Queue.length st.pending);
    let results, _stats =
      Engine.Pool.map st.pool ~name:"serve"
        ~f:(fun _worker (_cid, req) -> Handler.handle req)
        batch
    in
    List.iter2
      (fun (cid, (req : Api.Request.t)) (r : _ Engine.job_result) ->
        Admission.observe st.adm ~service_ns:r.Engine.elapsed_ns;
        st.served <- st.served + 1;
        let resp =
          match r.Engine.outcome with
          | Engine.Done resp -> resp
          | Engine.Budget_exceeded _ ->
              (* the handler normally converts budget stops itself;
                 this arm only fires if the stop escaped the worker *)
              {
                Api.Response.id = req.id;
                payload =
                  Api.Response.Error
                    {
                      code = Api.Response.Budget_exceeded;
                      message = "request budget exceeded";
                    };
                obs = Api.Response.no_obs;
              }
          | Engine.Failed f ->
              {
                Api.Response.id = req.id;
                payload =
                  Api.Response.Error
                    { code = Api.Response.Internal; message = f.Engine.message };
                obs = Api.Response.no_obs;
              }
        in
        match Hashtbl.find_opt st.conns cid with
        | Some conn -> respond st conn resp
        | None ->
            (* client vanished mid-request: the work completed and
               warmed the store; only the response is dropped *)
            M.Counter.incr c_dropped 1)
      batch results
  end

let run ?(on_ready = fun _ -> ()) cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = bind_listen cfg.listen in
  let pool = Engine.Pool.create ~name:"serve" ~size:(max 1 cfg.jobs) () in
  let st =
    {
      cfg;
      listen_fd;
      pool;
      adm = Admission.create ();
      conns = Hashtbl.create 16;
      pending = Queue.create ();
      read_chunk = Bytes.create 65536;
      next_cid = 0;
      stop = false;
      served = 0;
      rejected = 0;
      malformed = 0;
    }
  in
  let cleanup () =
    Hashtbl.iter
      (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      st.conns;
    Hashtbl.reset st.conns;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (match cfg.listen with
    | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Tcp _ -> ());
    Engine.Pool.shutdown pool
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  on_ready (Unix.getsockname listen_fd);
  let rec loop () =
    dispatch st;
    (* stop = shutdown acked; loop until the queue is drained, then
       close everything (clients still connected see EOF) *)
    if not (st.stop && Queue.is_empty st.pending) then begin
      let conn_fds = Hashtbl.fold (fun _ c acc -> c.fd :: acc) st.conns [] in
      let fds = if st.stop then conn_fds else st.listen_fd :: conn_fds in
      (match Unix.select fds [] [] 0.25 with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd = st.listen_fd then (if not st.stop then accept_conn st)
              else
                match
                  Hashtbl.fold
                    (fun _ c acc -> if c.fd = fd then Some c else acc)
                    st.conns None
                with
                | Some conn -> conn_read st conn
                | None -> ())
            readable);
      loop ()
    end
  in
  loop ();
  { served = st.served; rejected = st.rejected; malformed = st.malformed }
