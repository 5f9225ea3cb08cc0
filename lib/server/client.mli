(** A small blocking client for the {!Protocol} wire format — what the
    hammer tests, the smoke test and [perso_cli call] speak through. *)

type t

val connect : ?wait_ms:float -> string -> t
(** Connect to a Unix-domain socket.  [wait_ms] keeps retrying a
    refused/absent socket for that long (10 ms steps) — the "server is
    still starting" window.  @raise Unix.Unix_error when the connection
    cannot be established. *)

val connect_tcp : ?wait_ms:float -> port:int -> unit -> t
(** Connect to 127.0.0.1:[port]. *)

val set_receive_timeout : t -> float -> unit
(** Arm [SO_RCVTIMEO] (seconds): a read with no reply past the deadline
    raises instead of blocking forever, so a server that accepts but
    never answers fails the caller's read instead of hanging it. *)

val request :
  ?deadline_ms:float ->
  ?max_rows:int ->
  ?max_expansions:int ->
  t ->
  string ->
  (Protocol.response, string) result
(** Send one command line with optional budget headers and read the
    response.  [Error] on protocol violations or a dropped connection. *)

val close : t -> unit
(** Send [QUIT] (best-effort) and close the socket. *)
