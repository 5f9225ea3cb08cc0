(** Typed error taxonomy for the personalization service layer.

    Every failure mode of the pipeline — lexing/parsing, binding,
    non-conjunctive inputs, profile problems, storage, resource budgets,
    engine internals — is one constructor of {!t}.  Result-returning
    entry points ({!Personalize.personalize_sql_r},
    {!Relal.Csv.load_db_r}, {!Profile_store.load_r}) produce these
    directly; {!guard} converts any raising call, so [bin/] entry points
    can promise that no raw exception escapes.

    The mapping from exceptions is total: known library exceptions map
    to their family, [Stack_overflow]/[Out_of_memory] to
    [Resource_exhausted], injected chaos faults to [Storage] or
    [Internal] depending on the injection point, and anything unknown to
    [Internal]. *)

type t =
  | Parse of string
  | Lex of { msg : string; pos : int }
  | Bind of string
  | Not_conjunctive of string  (** personalization needs SPJ inputs *)
  | Profile of string  (** unreadable or malformed profile *)
  | Storage of string  (** dump/DDL/CSV/file-system failures *)
  | Resource_exhausted of Relal.Governor.progress
      (** a budget ran out; carries partial-progress statistics *)
  | Overloaded of string
      (** the service shed this request instead of doing the work:
          admission queue full, deadline expired while queued, or server
          draining.  The request is safe to retry elsewhere or later —
          no work was started. *)
  | Usage of string
      (** a malformed request at the interface boundary: out-of-range
          CLI flags (zero/negative shard or domain counts, empty cache
          budgets), unparseable [--store] specs, a server socket path
          another server is accepting connections on.  Fix the
          invocation and retry. *)
  | Internal of string  (** engine invariant violations, unknown exceptions *)

exception Typed of t
(** An error classified where it is raised, by code above this library
    (the server's socket check, the CLI's scrub); {!of_exn} returns it
    as is. *)

val of_exn : exn -> t option
(** Classify a known exception; [None] for exceptions outside the
    taxonomy. *)

val of_exn_any : exn -> t
(** Total classifier: unknown exceptions become [Internal]. *)

val of_load_error : Relal.Csv.load_error -> t

val guard : (unit -> 'a) -> ('a, t) result
(** Run a computation, converting any exception (including
    [Stack_overflow] and [Out_of_memory]) into a typed error. *)

val to_string : t -> string
(** One-line message, e.g. ["parse error: ..."], ["resource exhausted:
    rows after 12 rows, 3 expansions, 0.41 ms"]. *)

val pp : Format.formatter -> t -> unit

val family_name : t -> string
(** Short stable family tag for wire protocols and logs: ["parse"],
    ["lex"], ["bind"], ["not-conjunctive"], ["profile"], ["storage"],
    ["resource-exhausted"], ["overloaded"], ["usage"], ["internal"]. *)

val exit_code : t -> int
(** Process exit code per family: user errors 1, storage 2, resource 3,
    internal 4, overloaded 5, usage 6.  Never 0. *)
