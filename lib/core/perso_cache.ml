open Relal

type locker = { with_lock : 'a. (unit -> 'a) -> 'a }

let no_lock = { with_lock = (fun f -> f ()) }

(* [Incremental] and [stats.incremental] are never produced since the
   cache stopped patching stale plans; they stay until the benchmark's
   tracer stops reading them. *)
type source = Hit | Incremental | Miss | Bypass

type stats = {
  hits : int;
  incremental : int;
  misses : int;
  bypasses : int;
  evictions : int;
  invalidations : int;
  entries : int;
  bytes : int;
}

(* Entries form a doubly-linked LRU list (head = most recently used)
   indexed by the hashtable.  An entry remembers the revision it was
   computed under: a profile mutation drops the user's entries, and an
   entry stored by a consult that raced a mutation is never served under
   the newer revision. *)
type entry = {
  key : string;
  e_user : string;
  e_rev : int;
  e_outcome : Personalize.outcome;
  e_bytes : int;
  mutable prev : entry option;
  mutable next : entry option;
}

type t = {
  db : Database.t;  (* the query database personalization runs against *)
  store_db : Database.t;
      (* where profiles/revisions live — the same as [db] except for a
         sharded server, whose per-shard caches bind revision tracking
         to their shard's store *)
  lock : locker;
  max_entries : int;
  max_bytes : int;
  tbl : (string, entry) Hashtbl.t;
  mutable head : entry option;
  mutable tail : entry option;
  mutable c_hits : int;
  mutable c_miss : int;
  mutable c_byp : int;
  mutable c_evict : int;
  mutable c_inval : int;
  mutable c_bytes : int;
}

(* ------------------------------ LRU list ---------------------------- *)

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let touch t e =
  match t.head with
  | Some h when h == e -> ()
  | _ ->
      unlink t e;
      push_front t e

let drop t e =
  unlink t e;
  Hashtbl.remove t.tbl e.key;
  t.c_bytes <- t.c_bytes - e.e_bytes

let rec enforce t =
  if Hashtbl.length t.tbl > t.max_entries || t.c_bytes > t.max_bytes then
    match t.tail with
    | None -> ()
    | Some e ->
        drop t e;
        t.c_evict <- t.c_evict + 1;
        enforce t

(* Byte accounting: a typed structural estimate ([Size_est]) instead of
   an exact [Obj.reachable_words] walk. *)
let store t ~key ~user ~rev outcome =
  Option.iter (drop t) (Hashtbl.find_opt t.tbl key);
  let e =
    {
      key;
      e_user = user;
      e_rev = rev;
      e_outcome = outcome;
      e_bytes = Size_est.entry_bytes ~key outcome;
      prev = None;
      next = None;
    }
  in
  Hashtbl.replace t.tbl key e;
  push_front t e;
  t.c_bytes <- t.c_bytes + e.e_bytes;
  enforce t

(* A mutation drops the user's entries.  The ones fresh until this
   mutation count as invalidations; an entry already behind an earlier
   revision was counted then. *)
let on_mutation t ~user =
  t.lock.with_lock (fun () ->
      let rev = Profile_store.revision t.store_db ~user in
      Hashtbl.fold
        (fun _ e acc -> if e.e_user = user then e :: acc else acc)
        t.tbl []
      |> List.iter (fun e ->
             if e.e_rev = rev - 1 then t.c_inval <- t.c_inval + 1;
             drop t e))

let create ?(lock = no_lock) ?(max_entries = 512)
    ?(max_bytes = 32 * 1024 * 1024) ?store_db db =
  let store_db = Option.value store_db ~default:db in
  let t =
    {
      db;
      store_db;
      lock;
      max_entries = max 1 max_entries;
      max_bytes = max 0 max_bytes;
      tbl = Hashtbl.create 64;
      head = None;
      tail = None;
      c_hits = 0;
      c_miss = 0;
      c_byp = 0;
      c_evict = 0;
      c_inval = 0;
      c_bytes = 0;
    }
  in
  Profile_store.subscribe store_db (fun ~user -> on_mutation t ~user);
  t

(* ------------------------------ keys -------------------------------- *)

(* Parameter fingerprint: injective per field ([%h] renders floats
   exactly), so distinct parameter sets never share cached plans. *)
let params_fp (p : Personalize.params) =
  String.concat "|"
    [
      (match p.k with
      | Criteria.Top_r r -> "top#" ^ string_of_int r
      | Criteria.Above d -> Printf.sprintf "above%h" (Degree.to_float d)
      | Criteria.Disj_above d -> Printf.sprintf "disj%h" (Degree.to_float d)
      | Criteria.Conj_above d -> Printf.sprintf "conj%h" (Degree.to_float d));
      (match p.m with
      | `Count n -> "m#" ^ string_of_int n
      | `Min_degree d -> Printf.sprintf "m%h" d);
      (match p.l with
      | `At_least n -> "l#" ^ string_of_int n
      | `Min_doi d -> Printf.sprintf "l%h" d);
      (match p.method_ with `SQ -> "sq" | `MQ -> "mq");
      (if p.rank then "rank" else "norank");
    ]

(* ------------------------------ lookup ------------------------------ *)

let personalize t ?(params = Personalize.default_params) ?gov ~user ?revision
    profile q =
  let user = String.lowercase_ascii user in
  let bound = Binder.bind t.db q in
  let key =
    String.concat "\x01" [ user; params_fp params; Sql_print.query_to_key bound ]
  in
  let rev =
    match revision with
    | Some r -> r
    | None -> Profile_store.revision t.store_db ~user
  in
  let fresh =
    t.lock.with_lock (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some e when e.e_rev = rev ->
            t.c_hits <- t.c_hits + 1;
            touch t e;
            Some e.e_outcome
        | _ -> None)
  in
  match fresh with
  | Some outcome -> (outcome, Hit)
  | None ->
      (* Compute outside the lock; a racing computation for the same key
         just overwrites with an identical outcome. *)
      let qg = Qgraph.of_query t.db bound in
      let stats = Select.fresh_stats () in
      let selected =
        Select.select ~stats ?gov t.db (Pgraph.of_profile profile) qg
          params.Personalize.k
      in
      let outcome =
        Personalize.integrate_selected ~params t.db qg ~stats selected
      in
      t.lock.with_lock (fun () ->
          t.c_miss <- t.c_miss + 1;
          store t ~key ~user ~rev outcome);
      (outcome, Miss)

let personalize_sql_r ?cache ?user ?revision ?params ?budget ?related db
    profile sql =
  let result, src =
    match (cache, user, related) with
    | Some t, Some u, None when t.db == db -> (
        match Sql_parser.parse sql with
        | exception e -> (Error (Error.of_exn_any e), Bypass)
        | q ->
            let params0 =
              Option.value params ~default:Personalize.default_params
            in
            let src = ref Bypass in
            (* Consult the cache on the full-strength rung only; degraded
               rungs always compute cold (their reduced parameters are
               transient) and reset the source so a degraded reply is
               never reported as cache-served. *)
            let compute ~params:ps ~gov =
              if ps = params0 then (
                let o, s = personalize t ~params:ps ?gov ~user:u ?revision profile q in
                src := s;
                o)
              else (
                src := Bypass;
                Personalize.personalize ~params:ps ?gov db profile q)
            in
            let r = Personalize.personalize_r_with ?params ?budget ~compute db q in
            (r, !src))
    | _ -> (Personalize.personalize_sql_r ?params ?budget ?related db profile sql, Bypass)
  in
  (match (src, cache) with
  | Bypass, Some t -> t.lock.with_lock (fun () -> t.c_byp <- t.c_byp + 1)
  | _ -> ());
  (result, src)

(* ------------------------------ stats ------------------------------- *)

let stats t =
  t.lock.with_lock (fun () ->
      {
        hits = t.c_hits;
        incremental = 0;
        misses = t.c_miss;
        bypasses = t.c_byp;
        evictions = t.c_evict;
        invalidations = t.c_inval;
        entries = Hashtbl.length t.tbl;
        bytes = t.c_bytes;
      })
