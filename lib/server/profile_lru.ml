type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;
}

(* Entries sit on a circular list in order of last use, around a
   sentinel: [root.next] is the entry used last, [root.prev] the one
   used longest ago, the one to evict.  A hit or a put moves its entry
   to the front: a few pointer writes, no allocation. *)
type entry = {
  user : string;
  revision : int;
  profile : Perso.Profile.t;
  mutable prev : entry;
  mutable next : entry;
}

type t = {
  capacity : int;
  lock : Perso.Perso_cache.locker;
  tbl : (string, entry) Hashtbl.t;
  root : entry;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ?(lock = Perso.Perso_cache.no_lock) ~capacity () =
  let rec root =
    { user = ""; revision = 0; profile = Perso.Profile.empty; prev = root; next = root }
  in
  {
    capacity = max 0 capacity;
    lock;
    tbl = Hashtbl.create 64;
    root;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let capacity t = t.capacity

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front t e =
  e.prev <- t.root;
  e.next <- t.root.next;
  t.root.next.prev <- e;
  t.root.next <- e

let drop t e =
  unlink e;
  Hashtbl.remove t.tbl e.user

let find t ~user ~revision =
  t.lock.with_lock @@ fun () ->
  match Hashtbl.find_opt t.tbl user with
  | Some e when e.revision = revision ->
      unlink e;
      push_front t e;
      t.hits <- t.hits + 1;
      Some e.profile
  | Some e ->
      (* Stale revision: a mutation beat the invalidation hook to the
         shard (or the entry predates a restart) — drop it now. *)
      drop t e;
      t.misses <- t.misses + 1;
      None
  | None ->
      t.misses <- t.misses + 1;
      None

let put t ~user ~revision profile =
  if t.capacity > 0 then
    t.lock.with_lock @@ fun () ->
    (match Hashtbl.find_opt t.tbl user with
    | Some e -> drop t e
    | None ->
        if Hashtbl.length t.tbl >= t.capacity then begin
          drop t t.root.prev;
          t.evictions <- t.evictions + 1
        end);
    let e = { user; revision; profile; prev = t.root; next = t.root } in
    Hashtbl.replace t.tbl user e;
    push_front t e

let remove t ~user =
  t.lock.with_lock @@ fun () ->
  match Hashtbl.find_opt t.tbl user with
  | Some e ->
      drop t e;
      t.invalidations <- t.invalidations + 1
  | None -> ()

let stats t =
  t.lock.with_lock @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    invalidations = t.invalidations;
    entries = Hashtbl.length t.tbl;
  }
