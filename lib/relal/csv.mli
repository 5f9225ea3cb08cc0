(** CSV persistence for tables and whole databases.

    Format: RFC-4180-style — fields separated by commas, quoted with
    double quotes when they contain commas, quotes or newlines, embedded
    quotes doubled.  The first line is a header of column names.  Values
    are rendered type-faithfully ([Null] as the empty unquoted field,
    dates as [YYYY-MM-DD]) and parsed back under the schema's column
    types, so a round trip is value-exact.

    A database directory holds [schema.ddl] (see {!Ddl}) plus one
    [<table>.csv] per table — a human-editable on-disk database that
    [perso_cli dump-data] writes, the CLI loads with [--data-dir] and
    the benchmark serves from — and a [manifest.sum] with per-file MD5
    checksums and sizes.  It is an interchange format, not a server's
    persistence: a server keeps profiles in its durable store
    ([--store disk:DIR]) and writes no dump.  [schema.ddl] declares the catalog's indexes
    ([create index on t (c)], one per indexed column), so a reload has
    the access paths the saved catalog had.

    Dumps are crash-safe: {!save_db} writes everything into a fresh
    temp directory, fsyncs each file, writes the manifest last, and
    swaps the directory in with renames, so an interrupted save leaves
    the previous dump loadable.  {!load_db_r} verifies the manifest and
    reports torn or truncated dumps as a typed {!load_error};
    directories without a manifest (hand-written, or produced before
    manifests existed) load unverified. *)

exception Csv_error of string

val table_to_string : Table.t -> string
(** Header plus one line per row. *)

val table_of_string : Schema.t -> string -> Table.t
(** Parse rows under the given schema (header validated), with the same
    one-pass scanner {!load_db_r} uses: each record is checked and
    inserted as soon as its line ends, so an error in an earlier record
    is reported before, say, an unterminated quote further on.
    @raise Csv_error on malformed CSV, a header mismatch, arity
    mismatches, or unparseable typed fields. *)

type load_error =
  | Missing_dump of string  (** no dump directory at the given path *)
  | Torn_dump of { dir : string; detail : string }
      (** a partial or corrupted dump: manifest verification failed
          (truncated file, missing table file, checksum mismatch), or
          the directory lost files the manifest promises *)
  | Malformed of string
      (** content errors: bad CSV/DDL syntax, type mismatches *)

val load_error_to_string : load_error -> string

val manifest_file : string
(** ["manifest.sum"] — one [<md5hex> <size> <filename>] line per file.
    An existing but {e empty} manifest is treated as torn: real saves
    always list at least [schema.ddl]. *)

val file_io : string -> (unit -> 'a) -> 'a
(** [file_io path f] runs [f], an operation on the file [path], turning
    a [Unix.Unix_error] it raises into [Sys_error "PATH: reason"] — what
    the stdlib's channel functions raise for the same failure, and what
    [Perso.Error] types as a storage error.  The dump writer and the
    profile store wrap their Unix-level file calls in it; sockets do
    not. *)

val write_file_sync : string -> string -> unit
(** Write [contents] to a fresh file (create/truncate) and fsync it
    before closing — the durability primitive the dump writer and the
    log-structured profile store share.  A failure raises [Sys_error]
    naming the file ({!file_io}). *)

val fsync_dir : string -> unit
(** Fsync a directory so renames/creates inside it are durable.
    Filesystems that refuse directory fsync are tolerated silently. *)

val save_db_r : dir:string -> Database.t -> (unit, string) result
(** Atomically (re)write the dump at [dir]: temp directory + fsync +
    rename swap, with a manifest.  Transient injected faults
    ({!Chaos.Persist_write}) are retried with bounded backoff; permanent
    ones and I/O errors return [Error].  An interrupted save never
    corrupts the existing dump. *)

val save_db : dir:string -> Database.t -> unit
(** {!save_db_r}, raising. @raise Csv_error on failure. *)

val load_db_r : dir:string -> (Database.t, load_error) result
(** Read a directory written by {!save_db} (or by hand).  Recovers a
    dump parked by a save interrupted between its commit renames.
    Tables listed in the DDL but missing a CSV load empty when no
    manifest is present (a manifest makes every listed file mandatory).

    Each file is read once.  With a manifest, every listed file is read
    and its size and MD5 checked before any file is parsed, and the
    parser gets those same bytes.  Each CSV's rows go straight into the
    catalog table.  Once all rows are in, each index the DDL declares
    and each foreign-key column's index is built once over the loaded
    rows (a DDL without index lines gets the foreign-key indexes
    only). *)

val load_db : dir:string -> Database.t
(** {!load_db_r}, raising.  @raise Csv_error on any load error. *)
