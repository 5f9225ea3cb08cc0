(** Profiles stored inside the database — the paper's own storage model
    ("User profiles are stored in a separate table", §7).

    The store is an ordinary relation in the catalog,

    {v PROFILES(username string, condition string, degree float) v}

    with one row per atomic preference, the condition in the same SQL
    syntax the text format uses.  Several users share the table; loading
    a user reconstructs their {!Profile.t}.  Because the store is a plain
    table, it travels with {!Relal.Csv.save_db}/[load_db] dumps and can
    be inspected with ordinary queries.  A server moves the relation
    out of the main catalog into its shards while it serves
    ([Perso_server.Sharded_store]), and persists profiles only in a
    durable store ({!Perso_store.Store}), never in a dump. *)

val table_name : string
(** ["profiles"]. *)

val install : Relal.Database.t -> unit
(** Create the profiles table if absent, and give it (or a table adopted
    from a dump) its hash index on [username] (idempotent).  Bulk loaders
    call this before inserting, so the index follows every row. *)

val save : Relal.Database.t -> user:string -> Profile.t -> unit
(** Replace the user's stored preferences with the given profile
    ({!install}s the table if needed).  Saving a profile semantically
    identical to the stored one is a no-op: no row written, no
    {!revision} bump, no subscriber notification — identical re-saves
    must not invalidate cached personalization plans. *)

val load : Relal.Database.t -> user:string -> (Profile.t, string list) result
(** Reconstruct a user's profile; an unknown user yields an empty
    profile.  Errors collect unparseable stored rows (e.g. after careless
    hand edits of a CSV dump). *)

val load_r : Relal.Database.t -> user:string -> (Profile.t, Error.t) result
(** {!load} with the failure modes folded into the {!Error} taxonomy:
    unparseable rows become [Error.Profile], injected chaos faults and
    anything else raised become their typed family.  Never raises. *)

val users : Relal.Database.t -> string list
(** Distinct usernames with stored preferences, sorted. *)

val delete : Relal.Database.t -> user:string -> unit
(** Remove a user's preferences.  A no-op (no revision bump, no
    notification) when the user has none stored. *)

(** {1 Revisions and invalidation hooks}

    Every {e effective} mutation ([save] with a changed profile,
    [delete] of an existing user) bumps a per-(database, user)
    monotonic revision counter and fires subscriber hooks — the cache
    invalidation signal consumed by {!Perso_cache}.  Live revision
    state, hooks and the attached backend sit in the database's
    {!Relal.Database.extension} slot, so they last exactly as long as
    the database, whatever the number of databases in the process.
    Nothing that a revision keys outlives the process: the plan cache
    and the server's parsed-profile LRU start empty, so the marks are
    not written to the catalog.  A durable store records each user's
    mark with every record, and {!restore} seeds the registry from it. *)

val revision : Relal.Database.t -> user:string -> int
(** Current revision for the user; [0] before any effective mutation
    in this process (or one a {!restore}d store records). *)

val revisions : Relal.Database.t -> (string * int) list
(** All known (user, revision) pairs, sorted; deleted users included. *)

val seed_revisions : Relal.Database.t -> (string * int) list -> unit
(** Raise the registry's high-water marks to at least the given values
    (never lowers) — how shard revisions are merged back into the main
    database at server shutdown. *)

val subscribe : Relal.Database.t -> (user:string -> unit) -> unit
(** Register a hook fired (in the mutating thread, after the revision
    bump) on each effective [save]/[delete] against this database, with
    the mutated user. *)

(** {1 Durable backends}

    A database can be attached to a durable store
    ({!Perso_store.Store.t}); every effective [save]/[delete] then
    writes through to it {e between} the replace of the user's rows and
    the revision bump, with the user's old rows put back if the append
    fails — memory never acknowledges what the disk refused.
    The in-memory table remains the read path (it is the paper's own
    storage model and the executor scans it); the store is the durable
    tier. *)

val attach : Relal.Database.t -> Perso_store.Store.t -> unit
(** Write-through from now on.  Does not copy existing rows — use
    {!export} (memory → store) or {!restore} (store → memory)
    first. *)

val export : Relal.Database.t -> Perso_store.Store.t -> unit
(** Push every stored profile into the store at its current
    registry revision (sorted user order).
    @raise Perso_store.Store.Store_error on a profile row that is not
    [(string, string, float)] — hand-edited dumps must fail fast rather
    than be silently dropped from the durable tier. *)

val check_exportable : Relal.Value.t array -> unit
(** Return on a profiles row {!export} accepts.
    @raise Perso_store.Store.Store_error the error {!export} raises on
    it otherwise.  A caller exporting several databases checks every
    row first, so a refused export writes no store at all. *)

val restore : Relal.Database.t -> Perso_store.Store.t -> unit
(** Load every profile and revision from the store into the database
    ({!install}ing tables as needed), seed the revision registry, and
    {!attach}.  The recovery path at server startup. *)

val entries_of_profile : Profile.t -> Perso_store.Codec.entry list
(** The codec-row rendering of a profile (condition text + degree),
    matching the in-database table rows byte-for-byte. *)
