(* The traced run: per-layer metrics from outside the program.

   Each layer is timed by wrapping calls to its public functions in
   spans (name, start, end, parent, request id), recorded in memory and
   written once, at the end, as JSON lines.  For a served workload the
   first requests of the same seeded script are replayed four times:

   A. in-process on one thread, calling the public functions in the
      order [Server_core] composes them, over a [Sharded_store] built
      with the server's default cache and LRU sizes — traced;
   B. the same, untraced, for the tracing overhead;
   C. through an in-process [Server_core] ([submit]), whose time minus
      A's stage spans is the hand-off (admission, worker wake-up,
      locks);
   D. through the real server over one connection in a closed loop,
      each request preceded by a PING, whose round trip is the wire.

   The passes run in lockstep, request by request, so that a change in
   the host's speed hits all four alike and cancels out of the
   differences taken between them.

   A consult also gets shadow spans: bind, and when the cache did not
   answer, selection and integration, timed again on the same inputs
   and flagged so they never count as the request's own time.  The
   residual is what D's served latency leaves after the wire and C's
   submit time for the same request. *)

open Relal
open Perso_server
module Core = Server_core.Make (Runtime.Threads)
module Store = Sharded_store.Make (Runtime.Threads)

(* ------------------------------ spans ------------------------------- *)

type span = {
  rid : int;
  id : int;
  parent : int;
  name : string;
  t0 : float;
  t1 : float;
  shadow : bool;
  attrs : (string * Json.t) list;
}

type recorder = {
  on : bool;
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;
}

let recorder on = { on; spans = []; next = 0; stack = [] }
let now = Dist.now

let span rc ?(shadow = false) ?(attrs = fun _ -> []) ~rid name f =
  if not rc.on then f ()
  else begin
    let id = rc.next in
    rc.next <- id + 1;
    let parent = match rc.stack with p :: _ -> p | [] -> -1 in
    rc.stack <- id :: rc.stack;
    let t0 = now () in
    let v = Fun.protect ~finally:(fun () -> rc.stack <- List.tl rc.stack) f in
    let t1 = now () in
    let s = { rid; id; parent; name; t0; t1; shadow; attrs = attrs v } in
    rc.spans <- s :: rc.spans;
    v
  end

let us s = (s.t1 -. s.t0) *. 1e6
let num i = Json.Num (float_of_int i)

(* One JSON object per span; [replays] names each replay's spans. *)
let write_spans path ~origin replays =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (replay, spans) ->
          List.iter
            (fun s ->
              let fields =
                [
                  ("replay", Json.Str replay);
                  ("rid", num s.rid);
                  ("id", num s.id);
                  ("parent", num s.parent);
                  ("name", Json.Str s.name);
                  ("start_us", Json.Num ((s.t0 -. origin) *. 1e6));
                  ("end_us", Json.Num ((s.t1 -. origin) *. 1e6));
                  ("shadow", Json.Bool s.shadow);
                ]
              in
              output_string oc (Json.to_string (Json.Obj (fields @ s.attrs)));
              output_char oc '\n')
            spans)
        replays)

(* ------------------------- the served replay ------------------------ *)

(* The server's configuration as [perso_cli serve] builds it for this
   workload: defaults, no budgets. *)
let config (s : Spec.served) ~store =
  {
    (Server_core.default_config ~socket_path:"<trace>") with
    Server_core.deadline_ms = None;
    max_rows = None;
    max_expansions = None;
    shards = Option.value ~default:1 s.disk_shards;
    store_dir = Option.map (fun _ -> store) s.disk_shards;
  }

let locker () =
  let m = Mutex.create () in
  {
    Perso.Perso_cache.with_lock =
      (fun f ->
        Mutex.lock m;
        Fun.protect ~finally:(fun () -> Mutex.unlock m) f);
  }

(* The store [Server_core.create] builds for this config. *)
let make_store (cfg : Server_core.config) db =
  let per_shard n = max 1 (n / cfg.shards) in
  Store.create
    ~cache:(fun ~store_db ->
      Perso.Perso_cache.create ~lock:(locker ())
        ~max_entries:(per_shard cfg.cache_entries)
        ~max_bytes:
          (max 4096 (int_of_float (cfg.cache_mb *. 1048576.) / cfg.shards))
        ~store_db db)
    ~profile_lru:(fun () ->
      Profile_lru.create ~lock:(locker ())
        ~capacity:(per_shard cfg.profile_lru_entries)
        ())
    ?persist:cfg.store_dir ~replicas:cfg.replicas ~shards:cfg.shards db

let source_name = function
  | Perso.Perso_cache.Hit -> "hit"
  | Perso.Perso_cache.Miss -> "miss"
  | Perso.Perso_cache.Incremental -> "incremental"
  | Perso.Perso_cache.Bypass -> "bypass"

(* Counts gathered beside the spans during pass A. *)
type counts = {
  mutable scanned : int;  (* shard profile rows, per LRU-miss load *)
  mutable returned : int;  (* entries those loads returned *)
  mutable after_edit : int;  (* consults of a key whose user saved since *)
  mutable after_edit_inc : int;  (* of those, answered by the patcher *)
  mutable user_bytes : int;  (* wire bytes of saved entries *)
  seen : (string, int) Hashtbl.t;  (* key -> user's saves at last consult *)
  saves : (string, int) Hashtbl.t;  (* user -> saves so far *)
}

let counts () =
  {
    scanned = 0;
    returned = 0;
    after_edit = 0;
    after_edit_inc = 0;
    user_bytes = 0;
    seen = Hashtbl.create 1024;
    saves = Hashtbl.create 64;
  }

let saves_of c user = Option.value ~default:0 (Hashtbl.find_opt c.saves user)

(* Preference selection as [Personalize.personalize] runs it: query
   graph, personalization graph, best-first selection. *)
let select rc ?shadow ?(attrs = []) ~rid db profile bound k =
  span rc ?shadow ~rid "select"
    ~attrs:(fun (_, _, (st : Perso.Select.stats)) ->
      attrs @ [ ("expansions", num st.expansions); ("pops", num st.pops) ])
    (fun () ->
      let qg = Perso.Qgraph.of_query db bound in
      let stats = Perso.Select.fresh_stats () in
      let g = Perso.Pgraph.of_profile profile in
      (qg, Perso.Select.select ~stats db g qg k, stats))

(* What a consult's work costs when computed cold: bind always, and
   selection and integration when the cache did not answer. *)
let shadows rc ~rid db profile q ~hit =
  let bound =
    span rc ~shadow:true ~rid "relal.bind" (fun () -> Binder.bind db q)
  in
  if not hit then begin
    let k = Perso.Personalize.default_params.k in
    let qg, selected, stats = select rc ~shadow:true ~rid db profile bound k in
    ignore
      (span rc ~shadow:true ~rid "integrate" (fun () ->
           Perso.Personalize.integrate_selected db qg ~stats selected))
  end

let exec rc ~rid f =
  span rc ~rid "exec"
    ~attrs:(fun (res : Exec.result) -> [ ("rows", num (List.length res.rows)) ])
    f

(* PERSONALIZE: under the user's shard read lock, the profile load and
   the cache consult, then execution. *)
let personalize rc st db c ~rid ~user ~sql =
  let res, (profile, q, hit) =
    Store.with_user_read st ~user (fun sdb ->
        let misses () = (Store.plru_stats st).Profile_lru.misses in
        let before = if rc.on then misses () else 0 in
        let profile =
          match
            span rc ~rid "profile.load" (fun () ->
                Store.load_profile st ~user sdb)
          with
          | Ok p -> p
          | Error e -> failwith (Perso.Error.to_string e)
        in
        if rc.on && misses () > before then begin
          let tbl = Database.table sdb Perso.Profile_store.table_name in
          c.scanned <- c.scanned + Table.cardinality tbl;
          c.returned <- c.returned + Perso.Profile.cardinal profile
        end;
        let q = span rc ~rid "relal.parse" (fun () -> Sql_parser.parse sql) in
        let cache = Option.get (Store.cache_for st ~user) in
        let outcome, src =
          span rc ~rid "cache.consult"
            ~attrs:(fun (_, src) -> [ ("source", Json.Str (source_name src)) ])
            (fun () -> Perso.Perso_cache.personalize cache ~user profile q)
        in
        if rc.on then begin
          let key = user ^ "\x01" ^ sql in
          (match Hashtbl.find_opt c.seen key with
          | Some e when saves_of c user > e ->
              c.after_edit <- c.after_edit + 1;
              if src = Perso.Perso_cache.Incremental then
                c.after_edit_inc <- c.after_edit_inc + 1
          | _ -> ());
          Hashtbl.replace c.seen key (saves_of c user)
        end;
        let res =
          exec rc ~rid (fun () -> Perso.Personalize.execute db outcome)
        in
        (res, (profile, q, src = Perso.Perso_cache.Hit)))
  in
  if rc.on then shadows rc ~rid db profile q ~hit;
  res

(* [p] is the profile the script generated for this save, the one its
   wire entries spell out. *)
let save rc st c ~rid ~user ~entries p =
  span rc ~rid "profile.save" (fun () ->
      Store.with_user_write st ~user (fun sdb ->
          Perso.Profile_store.save sdb ~user p));
  if rc.on then begin
    Hashtbl.replace c.saves user (saves_of c user + 1);
    c.user_bytes <- c.user_bytes + String.length entries
  end;
  Printf.sprintf "saved user=%s entries=%d" user (Perso.Profile.cardinal p)

(* One request as [Server_core] composes it, between the shell's parse
   and render. *)
let replay_one rc st db c ~rid (r : Script.req) =
  span rc ~rid "request" (fun () ->
      let reply =
        match
          span rc ~rid "protocol.parse" (fun () ->
              Protocol.parse_command r.line)
        with
        | Ok (Protocol.Personalize { user; sql }) ->
            `Rows (personalize rc st db c ~rid ~user ~sql)
        | Ok (Protocol.Run sql) ->
            let q =
              span rc ~rid "relal.parse" (fun () -> Sql_parser.parse sql)
            in
            `Rows (exec rc ~rid (fun () -> Engine.run_query db q))
        | Ok (Protocol.Profile_save { user; entries }) ->
            `Msg (save rc st c ~rid ~user ~entries (Option.get r.saved))
        | Ok (Protocol.Profile_show user) -> (
            match
              span rc ~rid "profile.show" (fun () ->
                  Store.with_user_read st ~user (fun sdb ->
                      Perso.Profile_store.load_r sdb ~user))
            with
            | Ok p -> `Rows (Spec.profile_result p)
            | Error e -> failwith (Perso.Error.to_string e))
        | Ok _ | Error _ -> failwith ("trace: unexpected request: " ^ r.line)
      in
      span rc ~rid "protocol.render"
        ~attrs:(fun n -> [ ("bytes", num n) ])
        (fun () ->
          let b = Buffer.create 256 in
          (match reply with
          | `Rows res -> Protocol.bprint_rows b ~notes:[] res
          | `Msg m -> Protocol.bprint_message b m);
          Buffer.length b))

(* Run [traced i], [untraced i] and [beside i] for each [i]; the
   seconds spent in [untraced]. *)
let lockstep ?(beside = ignore) n ~traced ~untraced =
  let off = ref 0. in
  for i = 0 to n - 1 do
    traced i;
    let t0 = now () in
    untraced i;
    off := !off +. (now () -. t0);
    beside i
  done;
  !off

type replay = {
  origin : float;
  spans : span list;
  untraced : float;  (* seconds of pass B *)
  counts : counts;
  cache : Perso.Perso_cache.stats;
  plru : Profile_lru.stats;
  store : (Perso_store.Store.stats * Perso_store.Store.stats) option;
      (* before and after, for a disk store *)
}

(* Passes A and B, each over its own catalog and store; [beside i] runs
   the other passes on request [i]. *)
let replay ~cfg ~load ~beside (reqs : Script.req array) =
  let db = load () and db_b = load () in
  let st = make_store (cfg "a") db and st_b = make_store (cfg "b") db_b in
  let rc = recorder true and c = counts () in
  let off = recorder false and c_b = counts () in
  let before = Store.store_stats st in
  Gc.full_major ();
  let t0 = now () in
  let untraced =
    lockstep ~beside (Array.length reqs)
      ~traced:(fun rid -> ignore (replay_one rc st db c ~rid reqs.(rid)))
      ~untraced:(fun rid ->
        ignore (replay_one off st_b db_b c_b ~rid reqs.(rid)))
  in
  let r =
    {
      origin = t0;
      spans = List.rev rc.spans;
      untraced;
      counts = c;
      cache = Store.cache_stats st;
      plru = Store.plru_stats st;
      store =
        (match (before, Store.store_stats st) with
        | Some b, Some a -> Some (b, a)
        | _ -> None);
    }
  in
  Store.merge_back st;
  Store.merge_back st_b;
  r

(* Pass C: [Server_core.submit] in-process; [k] gets the function that
   submits one request and returns its µs. *)
let with_core cfg db k =
  let core = Core.create cfg db in
  Fun.protect
    ~finally:(fun () -> ignore (Core.stop core))
    (fun () ->
      k (fun (r : Script.req) ->
          match Protocol.parse_command r.line with
          | Error e -> failwith e
          | Ok cmd ->
              let t0 = now () in
              (match Core.submit core Protocol.empty_header cmd with
              | Server_core.R_error e -> failwith (Perso.Error.to_string e)
              | _ -> ());
              (now () -. t0) *. 1e6))

(* Pass D: the real server over one connection; [k] gets the function
   that sends one request and returns (PING µs, request µs). *)
let with_server (ctx : Spec.ctx) s ~data ~store k =
  let srv, _, _ = Served.start_server ctx s ~data ~store ~tag:"trace" in
  Fun.protect
    ~finally:(fun () -> Server_proc.shutdown srv)
    (fun () ->
      let c = Served.connect srv.Server_proc.socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let timed line =
            let t0 = now () in
            (match Client.request c line with
            | Ok (Protocol.Failed { message; _ }) -> failwith message
            | Ok _ -> ()
            | Error e -> failwith e);
            (now () -. t0) *. 1e6
          in
          k (fun (r : Script.req) ->
              let ping = timed "PING" in
              (ping, timed r.line))))

(* ----------------------------- metrics ------------------------------ *)

let durations ?(shadow = false) ?(where = fun _ -> true) name spans =
  List.filter_map
    (fun s ->
      if s.name = name && s.shadow = shadow && where s then Some (us s)
      else None)
    spans

let attr_num k s =
  match List.assoc_opt k s.attrs with Some (Json.Num f) -> f | _ -> 0.

let attr_str k s =
  match List.assoc_opt k s.attrs with Some (Json.Str v) -> v | _ -> ""

let q p l = if l = [] then 0. else Dist.quantile l p

let attr_mean k name spans =
  match List.filter (fun s -> s.name = name) spans with
  | [] -> 0.
  | l -> Dist.mean (List.map (attr_num k) l)

(* Stages inside [submit], per request: every direct child of a request
   span except the parse and render, which the shell does. *)
let stage_sums spans n =
  let roots = Hashtbl.create n in
  List.iter
    (fun s -> if s.name = "request" then Hashtbl.replace roots s.id ())
    spans;
  let sums = Array.make n 0. in
  List.iter
    (fun s ->
      if
        (not s.shadow) && Hashtbl.mem roots s.parent
        && s.name <> "protocol.parse" && s.name <> "protocol.render"
      then sums.(s.rid) <- sums.(s.rid) +. us s)
    spans;
  sums

(* Traced against untraced time of the same requests, in percent: the
   request spans less the shadow work inside them. *)
let overhead ~spans ~untraced =
  let total f = Dist.sum (List.filter_map f spans) /. 1e6 in
  let requests =
    total (fun s -> if s.name = "request" then Some (us s) else None)
  and shadows = total (fun s -> if s.shadow then Some (us s) else None) in
  ((requests -. shadows) /. untraced -. 1.) *. 100.

(* The per-layer metrics of the served replay.  [pipeline], when given,
   holds the spans whose parse, bind, select and integrate stages stand
   for the workload (rewrite-large's own replay); otherwise they come
   from the served replay's shadows. *)
let served_metrics ?pipeline a ~submit ~wire =
  let sp = a.spans and n = Array.length submit in
  let pipe_sp, pipe_shadow =
    match pipeline with Some spans -> (spans, false) | None -> (sp, true)
  in
  let pipe name = durations ~shadow:pipe_shadow name pipe_sp in
  let stages = stage_sums sp n in
  let submit_l = Array.to_list submit in
  let handoff = List.init n (fun i -> submit.(i) -. stages.(i)) in
  let served = Array.to_list (Array.map snd wire) in
  let residual =
    q 0.5 (List.init n (fun i -> snd wire.(i) -. fst wire.(i) -. submit.(i)))
  in
  let source v =
    durations ~where:(fun s -> attr_str "source" s = v) "cache.consult" sp
  in
  let cs = a.cache in
  let appends, wal_per_byte =
    match a.store with
    | Some (b, af) ->
        ( float_of_int (af.appends - b.appends),
          Dist.ratio (af.wal_bytes - b.wal_bytes) a.counts.user_bytes )
    | None -> (0., 0.)
  in
  let us_m name v = Spec.m name v "us" in
  let gated =
    [
      us_m "protocol.parse_us.p50" (q 0.5 (durations "protocol.parse" sp));
      us_m "protocol.render_us.p50" (q 0.5 (durations "protocol.render" sp));
      Spec.m "protocol.reply_bytes.mean"
        (attr_mean "bytes" "protocol.render" sp)
        "bytes";
      us_m "wire.rtt_us.p50" (q 0.5 (Array.to_list (Array.map fst wire)));
      us_m "core.submit_us.p50" (q 0.5 submit_l);
      us_m "core.submit_us.p99" (q 0.99 submit_l);
      us_m "core.handoff_us.p50" (q 0.5 handoff);
      us_m "profile.load_us.p50" (q 0.5 (durations "profile.load" sp));
      us_m "profile.load_us.p99" (q 0.99 (durations "profile.load" sp));
      Spec.m "profile.lru_hit_ratio"
        (Dist.ratio a.plru.hits (a.plru.hits + a.plru.misses))
        "ratio";
      Spec.m "profile.rows_scanned_per_row"
        (Dist.ratio a.counts.scanned a.counts.returned)
        "ratio";
      us_m "cache.consult_us.p50" (q 0.5 (durations "cache.consult" sp));
      Spec.m "cache.hit_ratio"
        (Dist.ratio cs.hits (cs.hits + cs.misses + cs.incremental))
        "ratio";
      Spec.m "cache.incremental_ratio"
        (Dist.ratio a.counts.after_edit_inc a.counts.after_edit)
        "ratio";
      Spec.m "cache.evictions" (float_of_int cs.evictions) "count";
      us_m "relal.parse_us.p50" (q 0.5 (durations "relal.parse" pipe_sp));
      us_m "relal.bind_us.p50" (q 0.5 (pipe "relal.bind"));
      us_m "select.us.p50" (q 0.5 (pipe "select"));
      us_m "select.us.p99" (q 0.99 (pipe "select"));
      Spec.m "select.expansions.mean"
        (attr_mean "expansions" "select" pipe_sp)
        "count";
      Spec.m "select.pops.mean" (attr_mean "pops" "select" pipe_sp) "count";
      us_m "integrate.us.p50" (q 0.5 (pipe "integrate"));
      us_m "integrate.us.p99" (q 0.99 (pipe "integrate"));
      us_m "exec.us.p50" (q 0.5 (durations "exec" sp));
      us_m "exec.us.p99" (q 0.99 (durations "exec" sp));
      us_m "residual_us.p50" (Float.abs residual);
      Spec.m "store.wal_bytes_per_user_byte" wal_per_byte "ratio";
    ]
  in
  let diags =
    [
      us_m "served_us.p50" (q 0.5 served);
      Spec.m "residual_share"
        (if served = [] then 0. else Float.abs residual /. q 0.5 served)
        "ratio";
      us_m "cache.hit_us.p50" (q 0.5 (source "hit"));
      us_m "cache.miss_us.p50" (q 0.5 (source "miss"));
      us_m "cache.incremental_us.p50" (q 0.5 (source "incremental"));
      us_m "profile.save_us.p50" (q 0.5 (durations "profile.save" sp));
      us_m "profile.save_us.p99" (q 0.99 (durations "profile.save" sp));
      Spec.m "store.appends" appends "count";
      Spec.m "exec.rows_out.mean" (attr_mean "rows" "exec" sp) "rows";
      Spec.m "replayed" (float_of_int n) "requests";
    ]
  in
  (gated, diags)

(* ------------------------------- runs ------------------------------- *)

let trace_path (ctx : Spec.ctx) name =
  Filename.concat (Filename.dirname ctx.dir) ("trace-" ^ name ^ ".jsonl")

(* All four passes.  Each loads its own catalog: closing a pass's store
   merges its profiles back into the catalog it was built over. *)
let served_passes (ctx : Spec.ctx) s ~data (reqs : Script.req array) =
  let store tag = Filename.concat ctx.dir ("trace-store-" ^ tag) in
  let cfg tag = config s ~store:(store tag) in
  let load () = Csv.load_db ~dir:data in
  let n = Array.length reqs in
  let submit = Array.make n 0. and wire = Array.make n (0., 0.) in
  let ab =
    with_core (cfg "c") (load ()) (fun submit_one ->
        with_server ctx s ~data ~store:(store "d") (fun serve_one ->
            replay ~cfg ~load reqs ~beside:(fun i ->
                submit.(i) <- submit_one reqs.(i);
                wire.(i) <- serve_one reqs.(i))))
  in
  (ab, submit, wire)

(* Requests replayed through the serve path. *)
let served_n (ctx : Spec.ctx) = if ctx.smoke then 150 else 1500

let result ~attempted metrics diags =
  { Spec.metrics; diags; attempted; failed = 0; problems = [] }

let run_served (ctx : Spec.ctx) name (s : Spec.served) : Spec.result =
  let inp = Served.plan ctx s in
  let all = inp.Served.script.Script.reqs in
  let reqs = Array.sub all 0 (min (served_n ctx) (Array.length all)) in
  let a, submit, wire = served_passes ctx s ~data:inp.Served.data reqs in
  write_spans (trace_path ctx name) ~origin:a.origin [ ("served", a.spans) ];
  let gated, diags = served_metrics a ~submit ~wire in
  let overhead = overhead ~spans:a.spans ~untraced:a.untraced in
  result ~attempted:(Array.length reqs)
    (gated @ [ Spec.m "trace.overhead_pct" overhead "%" ])
    diags

(* rewrite-large: the operation itself, traced stage by stage in the
   order [Personalize.personalize] calls them. *)
let rewrite_op rc db profiles ~rid (o : Rewrite.op) =
  let profile = Hashtbl.find profiles o.user in
  let k = [ ("k", num o.k) ] in
  span rc ~rid "request" (fun () ->
      let q = span rc ~rid "relal.parse" (fun () -> Sql_parser.parse o.sql) in
      let bound = span rc ~rid "relal.bind" (fun () -> Binder.bind db q) in
      let qg, selected, stats =
        select rc ~attrs:k ~rid db profile bound (Perso.Criteria.Top_r o.k)
      in
      let outcome =
        span rc ~rid "integrate"
          ~attrs:(fun _ -> k)
          (fun () ->
            Perso.Personalize.integrate_selected ~params:(Rewrite.params o.k) db
              qg ~stats selected)
      in
      ignore
        (span rc ~rid "sql.print" (fun () ->
             Sql_print.query_to_string outcome.Perso.Personalize.personalized)))

(* Traced and untraced in lockstep: (origin, spans, untraced seconds). *)
let rewrite_replay db profiles (ops : Rewrite.op array) =
  let rc = recorder true and off = recorder false in
  Gc.full_major ();
  let t0 = now () in
  let untraced =
    lockstep (Array.length ops)
      ~traced:(fun rid -> rewrite_op rc db profiles ~rid ops.(rid))
      ~untraced:(fun rid -> rewrite_op off db profiles ~rid ops.(rid))
  in
  (t0, List.rev rc.spans, untraced)

(* Its served layers come from its users and queries sent as PERSONALIZE
   requests through the serve path. *)
let run_rewrite (ctx : Spec.ctx) name (r : Spec.rewrite) : Spec.result =
  let ops = Rewrite.write_inputs ctx r in
  let data = Rewrite.data_dir ctx.dir in
  let db = Csv.load_db ~dir:data in
  let profile u = Rewrite.load_profile db (Spec.user_name u) in
  let profiles = Hashtbl.create 8 in
  List.iter
    (fun u -> Hashtbl.replace profiles (Spec.user_name u) (profile u))
    (List.init r.profiles Fun.id);
  let n = if ctx.smoke then 150 else Array.length ops in
  let ops = Array.sub ops 0 n in
  let origin, spans, untraced = rewrite_replay db profiles ops in
  let s =
    {
      Spec.users = r.profiles;
      user_zipf = 0.;
      templates = r.queries;
      template_zipf = 0.;
      selections = r.rselections;
      mix = { personalize = 100; run = 0; save = 0; load = 0 };
      rate = 1.;
      disk_shards = None;
      capacity = 1.;
    }
  in
  let script =
    Script.generate s ~db
      ~sqls:(Spec.templates db r.queries)
      ~profiles:(Array.init r.profiles profile)
      ~seed:ctx.seed
      [ Script.Closed (served_n ctx) ]
  in
  let sa, submit, wire = served_passes ctx s ~data script.Script.reqs in
  write_spans (trace_path ctx name) ~origin
    [ ("rewrite", spans); ("served", sa.spans) ];
  let gated, diags = served_metrics ~pipeline:spans sa ~submit ~wire in
  let per_k stage k =
    let at_k s = attr_num "k" s = float_of_int k in
    Spec.m
      (Printf.sprintf "%s.us.k%d" stage k)
      (q 0.5 (durations ~where:at_k stage spans))
      "us"
  in
  result ~attempted:n
    (gated
    @ [ Spec.m "trace.overhead_pct" (overhead ~spans ~untraced) "%" ])
    (diags
    @ List.concat_map (fun k -> [ per_k "select" k; per_k "integrate" k ]) r.ks
    )
