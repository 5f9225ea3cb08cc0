(* The socket front end.  Everything behind the wire — request slots,
   admission queue, budgets, drain, ledger — lives in
   {!Server_core}, instantiated here with the real-thread runtime; the
   deterministic simulation instantiates the same core with a virtual
   one. *)

module Core = Server_core.Make (Runtime.Threads)

type config = Server_core.config

let default_config = Server_core.default_config

type drain_outcome = Server_core.drain_outcome = {
  drained : bool;
  shed_at_stop : int;
}

type t = {
  core : Core.t;
  cfg : config;
  listeners : Unix.file_descr list;
  mutable acceptor : Thread.t option;
  cm : Mutex.t;  (* guards conns *)
  mutable conns : (Unix.file_descr * Thread.t) list;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let request_stop t = Core.request_stop t.core
let begin_drain t = Core.begin_drain t.core
let draining t = Core.draining t.core
let health t = Core.health t.core

(* ---------------------------- connections ---------------------------- *)

let unregister_conn t fd =
  locked t.cm (fun () ->
      t.conns <- List.filter (fun (fd', _) -> fd' <> fd) t.conns)

(* Each connection reads through its own chunk buffer.  A line is cut
   at the first '\n' found by scanning the chunk; only a line that spans
   chunks is assembled in [partial], and one longer than
   {!Protocol.max_line_bytes} raises [Line_too_long] instead of growing
   the heap. *)
exception Line_too_long

type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pos : int;  (* next unread byte of [chunk] *)
  mutable len : int;  (* bytes of [chunk] filled by the last read *)
  partial : Buffer.t;
}

let reader fd =
  { fd; chunk = Bytes.create 65536; pos = 0; len = 0; partial = Buffer.create 256 }

let rec scan_newline b i stop =
  if i = stop || Bytes.unsafe_get b i = '\n' then i
  else scan_newline b (i + 1) stop

let take_partial r =
  let line = Buffer.contents r.partial in
  Buffer.reset r.partial;
  line

(* The next line without its '\n'; [None] at EOF.  A final line the
   client never terminated is still returned, as [input_line] does. *)
let rec input_line r =
  if r.pos = r.len then
    match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
    | 0 -> if Buffer.length r.partial = 0 then None else Some (take_partial r)
    | n ->
        r.pos <- 0;
        r.len <- n;
        input_line r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> input_line r
  else begin
    let nl = scan_newline r.chunk r.pos r.len in
    let n = nl - r.pos in
    if Buffer.length r.partial + n > Protocol.max_line_bytes then
      raise Line_too_long;
    if nl = r.len then begin
      Buffer.add_subbytes r.partial r.chunk r.pos n;
      r.pos <- r.len;
      input_line r
    end
    else begin
      let line =
        if Buffer.length r.partial = 0 then Bytes.sub_string r.chunk r.pos n
        else begin
          Buffer.add_subbytes r.partial r.chunk r.pos n;
          take_partial r
        end
      in
      r.pos <- nl + 1;
      Some line
    end
  end

let read_request r =
  let rec go hdr =
    match input_line r with
    | None -> None
    | Some line ->
        let line = String.trim line in
        if line = "" then go hdr
        else (
          match Protocol.parse_header_line line with
          | Some update -> go (update hdr)
          | None -> Some (hdr, Protocol.parse_command line))
  in
  go Protocol.empty_header

let handle_connection t fd =
  let r = reader fd in
  let oc = Unix.out_channel_of_descr fd in
  let finally () =
    unregister_conn t fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      try
        let rec loop () =
          match read_request r with
          | exception Line_too_long ->
              (* The rest of the line is never read: answer once, close. *)
              Protocol.write_error oc
                (Perso.Error.Parse
                   (Printf.sprintf "protocol: request line exceeds %d bytes"
                      Protocol.max_line_bytes))
          | None -> ()
          | Some (_, Error msg) ->
              Protocol.write_error oc (Perso.Error.Parse ("protocol: " ^ msg));
              loop ()
          | Some (_, Ok Protocol.Quit) -> ()
          | Some (_, Ok Protocol.Ping) ->
              Protocol.write_message oc "pong";
              loop ()
          | Some (_, Ok Protocol.Health) ->
              Protocol.write_stats oc (health t);
              loop ()
          | Some (_, Ok Protocol.Shutdown) ->
              Protocol.write_message oc "draining";
              request_stop t;
              begin_drain t;
              loop ()
          | Some (hdr, Ok cmd) ->
              (match Core.submit t.core hdr cmd with
              | Server_core.R_rows { notes; result } ->
                  Protocol.write_rows oc ~notes result
              | Server_core.R_message m -> Protocol.write_message oc m
              | Server_core.R_error e -> Protocol.write_error oc e);
              loop ()
        in
        loop ()
      with
      (* A failed socket read (Unix_error) or channel write (Sys_error)
         ends this connection and nothing else. *)
      | End_of_file | Sys_error _ | Unix.Unix_error _ -> ())

(* ------------------------------ acceptor ----------------------------- *)

(* The acceptor keeps accepting while draining: connection threads still
   answer the control plane (HEALTH during a drain is exactly when you
   want it) and shed data commands with typed Overloaded errors — a
   client must never hang in the listen backlog.  Only a stopped core
   ends the loop, right before {!stop} closes the listeners. *)
let acceptor_loop t =
  let rec loop () =
    if Core.stop_requested t.core then begin_drain t;
    if Core.stopped t.core then ()
    else
      match Unix.select t.listeners [] [] 0.05 with
      | [], _, _ -> loop ()
      | ready, _, _ ->
          List.iter
            (fun lfd ->
              match Unix.accept lfd with
              | fd, _ ->
                  let th = Thread.create (handle_connection t) fd in
                  locked t.cm (fun () -> t.conns <- (fd, th) :: t.conns)
              | exception Unix.Unix_error _ -> ())
            ready;
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* ------------------------------- start ------------------------------- *)

(* A socket file at [path] that accepts a connection belongs to a live
   server: refuse to take its path over.  One whose connect is refused
   is a stale leftover, which [listen_unix] replaces. *)
let refuse_live_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            match Unix.connect fd (Unix.ADDR_UNIX path) with
            | () -> true
            | exception Unix.Unix_error _ -> false)
      in
      if live then
        raise
          (Perso.Error.Typed
             (Perso.Error.Usage
                (Printf.sprintf
                   "a server is already accepting connections on %s; stop it \
                    or choose another socket path"
                   path)))
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* An address the listener cannot bind or listen on (a missing
   directory, a port another process holds) is the operator's to fix: a
   typed usage error naming it. *)
let bind_and_listen fd addr what =
  match
    Unix.bind fd addr;
    Unix.listen fd 64
  with
  | () -> fd
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      raise
        (Perso.Error.Typed
           (Perso.Error.Usage
              (Printf.sprintf "cannot listen on %s: %s" what
                 (Unix.error_message e))))

let listen_unix path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  bind_and_listen fd (Unix.ADDR_UNIX path) ("socket " ^ path)

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  bind_and_listen fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    (Printf.sprintf "TCP port %d" port)

(* Close the listeners and remove the socket file. *)
let unlisten listeners path =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    listeners;
  try Unix.unlink path with Unix.Unix_error _ -> ()

let start cfg db =
  (* A dead client mid-response must error the write, not kill us. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* A live server's path is refused first.  Then the listeners, and
     the core last: a start refused at its socket or port opens no
     store, and one that store recovery refuses unbinds again, leaving
     no socket for a client to find with nothing listening. *)
  let path = cfg.Server_core.socket_path in
  refuse_live_socket path;
  let unix_fd = listen_unix path in
  let listeners =
    match cfg.tcp_port with
    | None -> [ unix_fd ]
    | Some p -> (
        match listen_tcp p with
        | fd -> [ unix_fd; fd ]
        | exception e ->
            unlisten [ unix_fd ] path;
            raise e)
  in
  let core =
    match Core.create cfg db with
    | core -> core
    | exception e ->
        unlisten listeners path;
        raise e
  in
  let t =
    { core; cfg; listeners; acceptor = None; cm = Mutex.create (); conns = [] }
  in
  t.acceptor <- Some (Thread.create acceptor_loop t);
  t

(* -------------------------------- stop ------------------------------- *)

let stop t =
  Core.stop t.core ~on_quiesced:(fun () ->
      Option.iter Thread.join t.acceptor;
      (* Shutting the connection fds down unblocks their reader
         threads; each then closes its own fd. *)
      let conns = locked t.cm (fun () -> t.conns) in
      List.iter
        (fun (fd, _) ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        conns;
      List.iter (fun (_, th) -> Thread.join th) conns;
      unlisten t.listeners t.cfg.Server_core.socket_path)

let wait t =
  let rec await () =
    if Core.stop_requested t.core || draining t then ()
    else begin
      Thread.delay 0.05;
      await ()
    end
  in
  await ();
  stop t
