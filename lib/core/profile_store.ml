open Relal

let table_name = "profiles"

(* ------------------------- revisions and hooks ----------------------

   Per-(database, user) monotonic revision counters, bumped on every
   {e effective} mutation, plus subscriber hooks — the invalidation
   signal for {!Perso_cache} — and the attached durable backend.  The
   state lives in the database's extension slot rather than in the
   catalog proper (the catalog is a relalgebra concern), so it lives
   and dies with its database.  All of it is held in [Atomic] cells over
   immutable values so concurrent readers (personalize requests under the
   server's read lock) never observe a half-updated structure while a
   writer (save/delete under the write lock) mutates it. *)

module SMap = Map.Make (String)

type reg = {
  revs : int SMap.t Atomic.t;
  hooks : (user:string -> unit) list Atomic.t;
  backend : Perso_store.Store.t option Atomic.t;
}

type Database.extension += Profile_registry of reg

let rec reg_for db =
  let slot = Database.extension db in
  match Atomic.get slot with
  | Some (Profile_registry r) -> r
  | Some _ -> invalid_arg "Profile_store: the database's extension slot is taken"
  | None ->
      let r =
        {
          revs = Atomic.make SMap.empty;
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

let seed_revisions db pairs =
  atomic_update (reg_for db).revs (fun m ->
      List.fold_left
        (fun m (user, rev) ->
          if rev > max 0 (Option.value ~default:0 (SMap.find_opt user m)) then
            SMap.add user rev m
          else m)
        m pairs)

let notify db ~user =
  let r = reg_for db in
  atomic_update r.revs (fun m ->
      SMap.add user (1 + Option.value ~default:0 (SMap.find_opt user m)) m);
  List.iter (fun hook -> hook ~user) (Atomic.get r.hooks)

(* The relation carries a hash index on [username] from the moment
   [install] creates or adopts it (a dump declares its indexes, so only
   one without index lines arrives without it), so a load or a keyed
   replace touches only the user's rows.  Only mutations and bulk loads
   install; a [load] under a read lock never builds the index, and on an
   unindexed table it scans. *)
let install db =
  if not (Database.mem_table db table_name) then
    Database.add_table db
      (Schema.make ~name:table_name
         ~cols:
           [
             ("username", Value.TStr); ("condition", Value.TStr);
             ("degree", Value.TFloat);
           ]
         ());
  Table.build_index (Database.table db table_name) "username"

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
     written (so no store append), no revision bump (so cached plans for
     the user stay valid). *)
  let before = user_rows t user in
  if not (List.equal row_equal before mine) then begin
    replace_rows ~hook:mutate t user mine;
    backend_apply db t ~user before (fun b ~next ->
        Perso_store.Store.save b ~user ~revision:next
          (entries_of_profile profile));
    notify db ~user
  end

(* One pass over the user's rows, last to first so that each list is
   built in row order.  Rows the server wrote are distinct and in
   entries order, and become the profile's entries as they are. *)
let load db ~user =
  Chaos.point Chaos.Profile_load;
  let user = String.lowercase_ascii user in
  match Database.find_table db table_name with
  | None -> Ok Profile.empty
  | Some t ->
      let ids = Table.lookup_ids t "username" (Value.Str user) in
      let entries = ref [] and errors = ref [] in
      let error e = errors := e :: !errors in
      for k = Array.length ids - 1 downto 0 do
        let row = Table.get t ids.(k) in
        match (row.(1), row.(2)) with
        | Value.Str cond, Value.Float deg -> (
            match (Atom.of_string cond, Degree.of_float_opt deg) with
            | Ok atom, Some d when not (Degree.equal d Degree.zero) ->
                entries := (atom, d) :: !entries
            | Ok _, _ -> error (Printf.sprintf "bad degree %g for %s" deg cond)
            | Error (Atom.Syntax e), _ -> error (Printf.sprintf "%s: %s" cond e)
            | Error (Atom.Not_atomic e), _ -> error e)
        | _ -> error "malformed profile row"
      done;
      if !errors = [] then Ok (Profile.of_entries !entries) else Error !errors

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
          Perso_store.Store.delete b ~user ~revision:next);
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

(* A profiles row as a durable store holds it, or the typed refusal. *)
let export_entry row =
  match (row.(0), row.(1), row.(2)) with
  | Value.Str user, Value.Str cond, Value.Float degree ->
      (user, { Perso_store.Codec.cond; degree })
  | Value.Str user, _, _ -> malformed_export user
  | _ -> malformed_export "<non-string username>"

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
          let user, entry = export_entry row in
          let prev = Option.value ~default:[] (Hashtbl.find_opt groups user) in
          Hashtbl.replace groups user (entry :: prev)));
  Hashtbl.fold (fun user entries acc -> (user, List.rev entries) :: acc) groups []
  |> List.sort compare
  |> List.iter (fun (user, entries) ->
         Perso_store.Store.save backend ~user
           ~revision:(revision db ~user)
           entries)

let restore db backend =
  install db;
  let t = Database.table db table_name in
  Perso_store.Store.iter backend (fun ~user ~revision:_ entries ->
      List.iter
        (fun { Perso_store.Codec.cond; degree } ->
          Table.insert t
            [| Value.Str user; Value.Str cond; Value.Float degree |])
        entries);
  seed_revisions db (Perso_store.Store.revisions backend);
  attach db backend
