(** The line-oriented wire protocol of the personalization server.

    A {e request} is zero or more header lines followed by one command
    line (blank lines between requests are ignored):

    {v
    DEADLINE-MS 250          -- optional: wall-clock budget for this request
    MAX-ROWS 10000           -- optional: rows-produced budget
    MAX-EXPANSIONS 500       -- optional: selection-expansions budget
    PERSONALIZE julie select mv.title from movie mv, play pl where mv.mid = pl.mid
    v}

    Client budgets are {e capped} by the server's own limits — a client
    may ask for less work than the server default, never more.

    Commands:
    - [RUN <sql>] — execute SQL as-is
    - [PERSONALIZE <user> <sql>] — personalize under the user's stored
      profile, then execute (degrading per the ladder)
    - [PROFILE SAVE <user> \[ cond, degree \] ...] — replace the user's
      stored profile with the given entries (none = delete)
    - [PROFILE LOAD <user>] — list the stored profile
    - [HEALTH] — queue/in-flight/shed/drain, store and cache counters
    - [PING] — liveness probe
    - [SHUTDOWN] — graceful drain, then server exit
    - [QUIT] — close this connection

    Keywords are case-insensitive.  [HEALTH], [PING], [SHUTDOWN] and
    [QUIT] are control-plane: they bypass the admission queue, so they
    answer even when the server is saturated or draining.

    A {e response} is either a single error line

    {v ERR <family> <exit-code> <one-line message> v}

    (families and exit codes exactly as {!Perso.Error.family_name} /
    {!Perso.Error.exit_code}), or an [OK] block terminated by [END]:

    {v
    OK rows=2
    NOTE degraded: ...       -- zero or more advisory notes
    COLS title      doi      -- tab-separated column names
    ROW 'Double Take'        0.962
    ROW 'Sweet Chaos'        0.962
    END
    v}

    [HEALTH] answers with [STAT <name> <value>] lines instead of
    [COLS]/[ROW]; message-only responses ([PROFILE SAVE], [PING],
    [SHUTDOWN]) carry their payload on the [OK] line itself. *)

type command =
  | Run of string
  | Personalize of { user : string; sql : string }
  | Profile_save of { user : string; entries : string }
      (** [entries]: whitespace-separated [\[ cond, degree \]] blocks *)
  | Profile_show of string
  | Health
  | Ping
  | Shutdown
  | Quit

type header = {
  deadline_ms : float option;
  max_rows : int option;
  max_expansions : int option;
}

val empty_header : header

val max_line_bytes : int
(** The longest request line the server reads: 1 MiB, newline
    excluded.  A longer line is answered with one [ERR parse] and the
    connection is closed, so a client that never sends a newline cannot
    grow the server's heap. *)

val parse_header_line : string -> (header -> header) option
(** [Some update] when the line is a budget header, [None] when it is a
    command (or garbage) line.  A header whose value does not parse as
    a number — [DEADLINE-MS abc], and [DEADLINE-MS nan] — is not a
    header, so it reaches {!parse_command} and is refused there. *)

val parse_command : string -> (command, string) result

val command_name : command -> string
(** The leading keyword, for logs and counters. *)

(** {1 Response formatting / parsing}

    Writers emit one complete response and flush.  The reader returns
    the structured form; it is what {!Client} uses. *)

type response =
  | Rows of { notes : string list; cols : string list; rows : string list list }
  | Stats of (string * string) list
  | Message of string
  | Failed of { family : string; code : int; message : string }

val one_line : string -> string
(** Newlines collapsed to ["; "] — everything on a wire line must stay a
    line. *)

val bprint_rows : Buffer.t -> notes:string list -> Relal.Exec.result -> unit
(** Render a row response into a buffer.  The [write_*] channel writers
    go through these renderers, and so does anything else that needs
    the server's exact reply bytes. *)

val bprint_stats : Buffer.t -> (string * string) list -> unit
val bprint_message : Buffer.t -> string -> unit
val bprint_error : Buffer.t -> Perso.Error.t -> unit

val write_rows :
  out_channel -> notes:string list -> Relal.Exec.result -> unit

val write_stats : out_channel -> (string * string) list -> unit

val write_message : out_channel -> string -> unit

val write_error : out_channel -> Perso.Error.t -> unit

val read_response : in_channel -> (response, string) result
(** Blocking read of one response.  [Error] on a protocol violation or
    EOF mid-response. *)
