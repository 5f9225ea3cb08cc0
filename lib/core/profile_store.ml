open Relal

let table_name = "profiles"
let revs_table_name = "profile_revs"

(* ------------------------- revisions and hooks ----------------------

   Per-(database, user) monotonic revision counters, bumped on every
   {e effective} mutation, plus subscriber hooks — the invalidation
   signal for {!Perso_cache} — and the attached durable backend.  The
   state lives in the database's extension slot rather than in the
   catalog proper (the catalog is a relalgebra concern), so it lives
   and dies with its database.  All of it is held in [Atomic] cells over
   immutable values so concurrent readers (personalize workers under the
   server's read lock) never observe a half-updated structure while a
   writer (save/delete under the write lock) mutates it. *)

module SMap = Map.Make (String)

type reg = {
  revs : int SMap.t Atomic.t;
  hooks : (user:string -> unit) list Atomic.t;
  backend : Perso_store.Backend.t option Atomic.t;
}

type Database.extension += Profile_registry of reg

(* The revision high-water marks persist as an ordinary catalog table,

     PROFILE_REVS(username string, revision int)

   with the user's row replaced on every effective mutation, so they
   travel with CSV dumps exactly like the profiles themselves.  A
   database's registry, made on first touch, seeds from that table: a
   reloaded server resumes
   {e above} the old marks instead of restarting at 0 and silently
   revalidating stale [Perso_cache] keys. *)
let initial_revs db =
  match Database.find_table db revs_table_name with
  | None -> SMap.empty
  | Some t ->
      Table.fold t ~init:SMap.empty ~f:(fun acc row ->
          match (row.(0), row.(1)) with
          | Value.Str user, Value.Int rev when rev > 0 ->
              SMap.add user (max rev (Option.value ~default:0 (SMap.find_opt user acc))) acc
          | _ -> acc)

let rec reg_for db =
  let slot = Database.extension db in
  match Atomic.get slot with
  | Some (Profile_registry r) -> r
  | Some _ -> invalid_arg "Profile_store: the database's extension slot is taken"
  | None ->
      let r =
        {
          revs = Atomic.make (initial_revs db);
          hooks = Atomic.make [];
          backend = Atomic.make None;
        }
      in
      (* A racing filler may win; either way the slot now holds the
         one registry every caller shares. *)
      ignore (Atomic.compare_and_set slot None (Some (Profile_registry r)));
      reg_for db

let rec atomic_update cell f =
  let v = Atomic.get cell in
  if Atomic.compare_and_set cell v (f v) then () else atomic_update cell f

let revision db ~user =
  let user = String.lowercase_ascii user in
  match SMap.find_opt user (Atomic.get (reg_for db).revs) with
  | Some r -> r
  | None -> 0

let revisions db = SMap.bindings (Atomic.get (reg_for db).revs)

let subscribe db hook = atomic_update (reg_for db).hooks (fun hs -> hook :: hs)

(* Both relations carry a hash index on [username] from the moment
   [install]/[install_revs] creates or adopts them (a dump declares its
   indexes, so only one without index lines arrives without it), so a
   load or a keyed replace touches only the user's rows.  Only mutations
   and bulk loads install; a [load] under a read lock never builds the
   index, and on an unindexed table it scans. *)
let install_table db name cols =
  if not (Database.mem_table db name) then
    Database.add_table db (Schema.make ~name ~cols ());
  Table.build_index (Database.table db name) "username"

let install_revs db =
  install_table db revs_table_name
    [ ("username", Value.TStr); ("revision", Value.TInt) ]

(* Raw writes — deliberately no chaos crossings: the revision table is
   bookkeeping riding on a mutation whose fault points already fired. *)
let write_revs_rows db rows =
  install_revs db;
  let t = Database.table db revs_table_name in
  Table.clear t;
  List.iter
    (fun (user, rev) -> Table.insert t [| Value.Str user; Value.Int rev |])
    rows

let set_rev_row db user rev =
  install_revs db;
  Table.replace (Database.table db revs_table_name) "username"
    (Value.Str user)
    [ [| Value.Str user; Value.Int rev |] ]

let seed_revisions db pairs =
  let r = reg_for db in
  atomic_update r.revs (fun m ->
      List.fold_left
        (fun m (user, rev) ->
          if rev > max 0 (Option.value ~default:0 (SMap.find_opt user m)) then
            SMap.add user rev m
          else m)
        m pairs);
  write_revs_rows db (SMap.bindings (Atomic.get r.revs))

let notify db ~user =
  let r = reg_for db in
  atomic_update r.revs (fun m ->
      SMap.add user (1 + Option.value ~default:0 (SMap.find_opt user m)) m);
  (match SMap.find_opt user (Atomic.get r.revs) with
  | Some rev -> set_rev_row db user rev
  | None -> ());
  List.iter (fun hook -> hook ~user) (Atomic.get r.hooks)

let install db =
  install_table db table_name
    [
      ("username", Value.TStr); ("condition", Value.TStr);
      ("degree", Value.TFloat);
    ]

let user_rows t user = Table.lookup t "username" (Value.Str user)

(* A user-level mutation is one keyed replace of the user's rows, which
   crosses {!Chaos.Store_mutate} once per row written and is
   all-or-nothing: a fault at any crossing restores the user's old rows
   before re-raising, so a concurrent or subsequent [load] sees either the
   old or the new profile — never an empty or partial one.  Each user's
   rows keep the order of [Profile.entries] at their last save. *)
let replace_rows ?hook t user rows =
  Table.replace ?hook t "username" (Value.Str user) rows

let mutate () = Chaos.point Chaos.Store_mutate

let row_equal a b =
  Array.length a = Array.length b && Array.for_all2 Value.equal a b

let entries_of_profile profile =
  List.map
    (fun (atom, deg) ->
      { Perso_store.Codec.cond = Atom.to_string atom;
        degree = Degree.to_float deg })
    (Profile.entries profile)

let attach db backend = Atomic.set (reg_for db).backend (Some backend)
let attached db = Atomic.get (reg_for db).backend

(* Write-through: the in-memory table mutates first (it rolls itself
   back on faults), then the WAL append makes the mutation durable,
   then the revision bump + hooks acknowledge it.  A backend failure
   re-applies the user's old rows so memory never claims what the disk
   refused — through the same keyed replace but with no hook: the failure
   being handled may itself be an injected fault, and the rollback must
   not roll a second coin. *)
let backend_apply db t ~user before f =
  match Atomic.get (reg_for db).backend with
  | None -> ()
  | Some b -> (
      let next = 1 + revision db ~user in
      try f b ~next
      with e ->
        replace_rows t user before;
        raise e)

let save db ~user profile =
  install db;
  let user = String.lowercase_ascii user in
  let t = Database.table db table_name in
  let mine =
    List.map
      (fun (atom, deg) ->
        [|
          Value.Str user;
          Value.Str (Atom.to_string atom);
          Value.Float (Degree.to_float deg);
        |])
      (Profile.entries profile)
  in
  (* Re-saving a semantically identical profile is a no-op: no row
     written (so no dump churn), no revision bump (so cached plans for
     the user stay valid). *)
  let before = user_rows t user in
  if not (List.equal row_equal before mine) then begin
    replace_rows ~hook:mutate t user mine;
    backend_apply db t ~user before (fun b ~next ->
        b.Perso_store.Backend.save ~user ~revision:next
          (entries_of_profile profile));
    notify db ~user
  end

let load db ~user =
  Chaos.point Chaos.Profile_load;
  let user = String.lowercase_ascii user in
  match Database.find_table db table_name with
  | None -> Ok Profile.empty
  | Some t ->
      let errors = ref [] in
      let profile = ref Profile.empty in
      List.iter
        (fun row ->
          match (row.(1), row.(2)) with
          | Value.Str cond, Value.Float deg -> (
              match
                ( Atom.of_pred (Sql_parser.parse_pred cond),
                  Degree.of_float_opt deg )
              with
              | Ok atom, Some d when not (Degree.equal d Degree.zero) ->
                  profile := Profile.add !profile atom d
              | Ok _, _ ->
                  errors := Printf.sprintf "bad degree %g for %s" deg cond :: !errors
              | Error e, _ -> errors := e :: !errors
              | exception Sql_parser.Parse_error e ->
                  errors := Printf.sprintf "%s: %s" cond e :: !errors
              | exception Sql_lexer.Lex_error (e, _) ->
                  errors := Printf.sprintf "%s: %s" cond e :: !errors)
          | _ -> errors := "malformed profile row" :: !errors)
        (user_rows t user);
      if !errors = [] then Ok !profile else Error (List.rev !errors)

let load_r db ~user =
  match Error.guard (fun () -> load db ~user) with
  | Error e -> Error e
  | Ok (Ok p) -> Ok p
  | Ok (Error errs) -> Error (Error.Profile (String.concat "; " errs))

let users db =
  match Database.find_table db table_name with
  | None -> []
  | Some t ->
      Table.fold t ~init:[] ~f:(fun acc row ->
          match row.(0) with Value.Str u -> u :: acc | _ -> acc)
      |> List.sort_uniq String.compare

(* A delete writes no row, so it crosses no [Store_mutate] point. *)
let delete db ~user =
  let user = String.lowercase_ascii user in
  if Database.mem_table db table_name then begin
    install db;
    let t = Database.table db table_name in
    let before = user_rows t user in
    if before <> [] then begin
      replace_rows t user [];
      backend_apply db t ~user before (fun b ~next ->
          b.Perso_store.Backend.delete ~user ~revision:next);
      notify db ~user
    end
  end

(* ------------------------- durable backends ------------------------- *)

let malformed_export user =
  raise
    (Perso_store.Store.Store_error
       (Perso_store.Store.Malformed
          {
            file = table_name;
            detail =
              Printf.sprintf
                "profile row for %S is not (string, string, float) — refusing \
                 to export it to a durable store"
                user;
          }))

(* One linear pass groups each user's entries newest-first; reversing each
   group restores the user's physical row order. *)
let export db backend =
  let groups : (string, Perso_store.Codec.entry list) Hashtbl.t =
    Hashtbl.create 64
  in
  (match Database.find_table db table_name with
  | None -> ()
  | Some t ->
      Table.iter t (fun row ->
          match (row.(0), row.(1), row.(2)) with
          | Value.Str user, Value.Str cond, Value.Float degree ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt groups user) in
              Hashtbl.replace groups user
                ({ Perso_store.Codec.cond; degree } :: prev)
          | Value.Str user, _, _ -> malformed_export user
          | _ -> malformed_export "<non-string username>"));
  Hashtbl.fold (fun user entries acc -> (user, List.rev entries) :: acc) groups []
  |> List.sort compare
  |> List.iter (fun (user, entries) ->
         backend.Perso_store.Backend.save ~user
           ~revision:(revision db ~user)
           entries)

let restore db backend =
  install db;
  let t = Database.table db table_name in
  backend.Perso_store.Backend.iter (fun ~user ~revision:_ entries ->
      List.iter
        (fun { Perso_store.Codec.cond; degree } ->
          Table.insert t
            [| Value.Str user; Value.Str cond; Value.Float degree |])
        entries);
  seed_revisions db (backend.Perso_store.Backend.revisions ());
  attach db backend
