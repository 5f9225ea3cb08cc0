(** A stored relation: a schema plus a mutable bag of rows, with optional
    indexes for equality lookups.

    Rows are [Value.t array]s positionally matching the schema.  The table
    validates arity and column types on insert, so downstream operators
    can trust stored data.

    An index maps each key to a {!bucket}: the ids of the rows holding
    that key, ascending.  It keeps the buckets in two places.  When
    {!build_index} finds the column's int keys {!dense} (every foreign
    and primary key of the movie catalog), a directory holds one slot
    per int in their span, so an int key, or a float equal to one
    ({!Value.int_key}), finds its bucket by value.  A hash under
    {!Value.equal} holds every other key: [Null], strings, non-integral
    floats, and ints outside the span, which an append never widens.
    Every write keeps both, and no read writes either.  Readers share
    buckets with the index, so a bucket, like the rest of the table, is
    mutated only under its owner's write lock: the shard rwlock for the
    server's profile tables; the catalog is read-only while serving. *)

type t

val create : Schema.t -> t
(** Empty table. *)

val schema : t -> Schema.t

val batch : t -> Batch.t
(** The table's storage batch, shared (not copied) with the caller.  The
    executor builds scans directly over it and resolves index lookups to
    row ids into it; callers must not mutate rows. *)

val cardinality : t -> int
(** Number of stored rows (O(1), cached by the batch). *)

val insert : t -> Value.t array -> unit
(** Append a row.  @raise Invalid_argument on wrong arity or a value
    whose type contradicts the schema ([Null] is accepted anywhere). *)

val insert_values : t -> Value.t list -> unit
(** List convenience around {!insert}. *)

val get : t -> int -> Value.t array
(** [get t i] is row [i] (0-based).  The returned array must not be
    mutated.  @raise Invalid_argument if out of bounds. *)

val iter : t -> (Value.t array -> unit) -> unit
(** Iterate all rows in row order: insertion order, except where
    {!replace} overwrote or compacted slots. *)

val fold : t -> init:'a -> f:('a -> Value.t array -> 'a) -> 'a

val to_list : t -> Value.t array list
(** All rows, in row order.  Shares row arrays with the table. *)

val build_index : t -> string -> unit
(** Ensure an index exists on the named column, with a directory when
    the int keys its rows hold are {!dense}.  Indexes stay in sync with
    subsequent inserts and replaces.  @raise Invalid_argument on unknown
    column. *)

val dense : lo:int -> hi:int -> int -> bool
(** [dense ~lo ~hi n]: are [n] int keys spanning [lo .. hi] worth an
    array of one slot per value in the span?  Yes when [n > 0] and the
    span has fewer than [4 n] values: the rule for {!build_index}'s
    directory and for the executor's value-indexed hash-join chains. *)

val has_index : t -> string -> bool
(** Does an index exist on the named column?  (The executor only
    chooses index access paths — selection pushdown into an index probe,
    index-nested-loop joins — where one exists.) *)

val indexed_columns : t -> string list
(** Names of the columns carrying an index, in schema order — what a
    dump declares ({!Ddl.to_string}) so a reload rebuilds them. *)

val lookup : t -> string -> Value.t -> Value.t array list
(** [lookup t col v] returns the rows with [col = v], using an index when
    one exists (building is the caller's choice), otherwise scanning. *)

val lookup_ids : t -> string -> Value.t -> int array
(** Like {!lookup} but returns row ids into {!batch} (ascending: row order)
    instead of materializing rows — the late-materialization access path.
    With an index, the ids are one copy of the key's bucket.
    @raise Invalid_argument on unknown column. *)

type bucket = private { mutable ids : int array; mutable len : int }
(** An index bucket: the ids of the rows holding one key, strictly
    ascending (row order), in [ids.(0)] .. [ids.(len - 1)]; [ids] may be
    longer.  It is the index's own storage: read it, never write to
    [ids], and do not keep it across a write to the table. *)

val prober : t -> string -> (Value.t -> bucket) option
(** [prober t col] resolves the column and its index {e once} and
    returns a probe closure mapping a value to its bucket (one with
    [len = 0] when no row holds the value), or [None] when the column
    has no index.  This is the inner loop of the index-nested-loop join:
    a key in the directory costs one range check and one array read,
    any other key one hash lookup; no string resolution and no
    allocation either way. *)

val count : t -> string -> Value.t -> int option
(** [count t col v] is the number of rows with [col = v], the length of
    its index bucket (O(1)), or [None] when [col] has no index.  The
    executor takes a filtered table's exact cardinality from it without
    materializing the rows. *)

val fanout : t -> string -> float option
(** Mean rows per distinct key of the column's index: the
    cardinality over the index's distinct keys (at least 1 on a
    non-empty table), or [None] when [col] has no index.  A mean, so a
    skewed column's hot keys match more rows than it says. *)

val replace :
  ?hook:(unit -> unit) -> t -> string -> Value.t -> Value.t array list -> unit
(** [replace ?hook t col key rows] makes [rows] the rows of [t] with
    [col = key], in that order — the keyed replace.  The key's existing
    slots are overwritten in row order, rows beyond them are appended, and
    slots left over when the key shrinks (an empty [rows] deletes the key)
    are closed by an order-preserving compaction; every other row keeps
    its relative order.  With an index on [col] the cost is the key's
    rows, plus the rows after its first freed slot when it shrinks;
    without one, a scan finds the slots.

    [hook] runs before each row is written, overwrite or append, never
    during the compaction.  If it raises, the writes made so far are
    undone — rows and indexes are exactly as before — and the exception
    propagates.
    @raise Invalid_argument on an unknown column, or a row that fails
    {!insert}'s checks or whose [col] is not [key] (checked before any
    write). *)

val clear : t -> unit
(** Remove all rows (indexes retained but emptied). *)
