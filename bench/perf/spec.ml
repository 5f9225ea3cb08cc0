(* The four workloads and the inputs each one is built from.

   Every workload runs over a 2,000-movie [Moviedb.Datagen] catalog.
   The catalog, the query-template pool and the users' initial profiles
   are fixed, so runs with different seeds measure the same population;
   the seed drives what the users do: which user asks which template
   when, the Poisson arrival times, the request mix, the edits, and the
   oracle's sample.  (With seeded profiles, which profile the hottest
   users happen to get moved p50 by a third between seeds.) *)

open Relal

type mix = { personalize : int; run : int; save : int; load : int }
(* Percentages of the request stream. *)

type served = {
  users : int;
  user_zipf : float;  (* 0 = uniform *)
  templates : int;
  template_zipf : float;
  selections : int;  (* atomic selections per profile *)
  mix : mix;
  rate : float;
      (* nominal open-loop arrivals per second: a fifth to a third of
         the closed-loop capacity, where a slower host moves latency
         little *)
  disk_shards : int option;  (* Some n: [--store disk:DIR --shards n] *)
  capacity : float;
      (* closed-loop requests per second over two connections on the VM
         the workloads were sized on; sizes the closed rounds *)
}

type rewrite = {
  profiles : int;
  rselections : int;
  queries : int;
  ks : int list;  (* top-K cycled through, one K per operation *)
}

type shape = Served of served | Rewrite of rewrite
type t = { name : string; shape : shape }

let hot_read =
  {
    name = "hot-read";
    shape =
      Served
        {
          users = 100;
          user_zipf = 1.1;
          templates = 6;
          template_zipf = 1.1;
          selections = 20;
          mix = { personalize = 90; run = 10; save = 0; load = 0 };
          rate = 100.;
          disk_shards = None;
          capacity = 450.;
        };
  }

let cold_users =
  {
    name = "cold-users";
    shape =
      Served
        {
          users = 2000;
          user_zipf = 0.;
          templates = 40;
          template_zipf = 0.;
          selections = 30;
          mix = { personalize = 100; run = 0; save = 0; load = 0 };
          rate = 75.;
          disk_shards = None;
          capacity = 270.;
        };
  }

let edit_churn =
  {
    name = "edit-churn";
    shape =
      Served
        {
          users = 500;
          user_zipf = 1.1;
          templates = 12;
          template_zipf = 1.1;
          selections = 30;
          mix = { personalize = 55; run = 0; save = 30; load = 15 };
          rate = 100.;
          disk_shards = Some 4;
          capacity = 430.;
        };
  }

let rewrite_large =
  {
    name = "rewrite-large";
    shape =
      Rewrite
        { profiles = 8; rselections = 100; queries = 32; ks = [ 5; 20; 60 ] };
  }

let all = [ hot_read; cold_users; edit_churn; rewrite_large ]
let find name = List.find_opt (fun w -> w.name = name) all

(* Tiny sizes for the smoke run: the same code paths, a fraction of the
   data. *)
let smoke w =
  match w.shape with
  | Served s ->
      {
        w with
        shape =
          Served
            {
              s with
              users = min s.users 40;
              templates = min s.templates 6;
              selections = min s.selections 8;
              rate = Float.min s.rate 100.;
            };
      }
  | Rewrite r ->
      {
        w with
        shape = Rewrite { r with profiles = 3; rselections = 20; queries = 6 };
      }

let movies ~smoke = if smoke then 300 else 2000

(* ------------------------------ inputs ------------------------------ *)

let catalog_seed = 11
let template_seed = 77
let population_seed = 23

let catalog ~smoke =
  Moviedb.Datagen.(generate (scale ~seed:catalog_seed (movies ~smoke)))

(* The fixed template pool, in Zipf-rank order: random conjunctive SPJ
   queries whose plain answer has 10 to 1,000 rows, so every template
   returns something and no single reply dwarfs the rest. *)
let templates db n =
  let rng = Putil.Rng.create template_seed in
  let seen = Hashtbl.create 64 in
  let rec go acc k attempts =
    if k = n then List.rev acc
    else if attempts > 100 * n then
      failwith "spec: could not draw enough query templates"
    else
      let q = Moviedb.Workload.random_query db rng in
      let sql = Sql_print.query_to_string q in
      let rows = List.length (Engine.run_query db q).Exec.rows in
      if rows >= 10 && rows <= 1000 && not (Hashtbl.mem seen sql) then begin
        Hashtbl.add seen sql ();
        go (sql :: acc) (k + 1) (attempts + 1)
      end
      else go acc k (attempts + 1)
  in
  Array.of_list (go [] 0 0)

let user_name i = Printf.sprintf "u%d" i

let profile db ~seed ~user ~selections =
  Moviedb.Profile_gen.generate db
    {
      Moviedb.Profile_gen.default with
      seed = (seed * 100_003) + user;
      n_selections = selections;
    }

(* The wire form of a profile for [PROFILE SAVE]: its entries on one
   line. *)
let wire_entries p =
  Perso.Profile.to_string p
  |> String.split_on_char '\n'
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")
  |> String.concat " "

(* What PROFILE LOAD returns for a profile. *)
let profile_result p =
  {
    Exec.cols = [| "condition"; "degree" |];
    rows =
      List.map
        (fun (a, d) ->
          [|
            Value.Str (Perso.Atom.to_string a);
            Value.Float (Perso.Degree.to_float d);
          |])
        (Perso.Profile.entries p);
  }

(* Bulk-load profiles straight into the catalog's profiles table, in
   the rows [Profile_store] writes: saving them one by one rewrites the
   whole table per user, which is quadratic in the user count. *)
let install_profiles db profiles =
  Perso.Profile_store.install db;
  let t = Database.table db Perso.Profile_store.table_name in
  Array.iter
    (fun (user, p) ->
      List.iter
        (fun row -> Table.insert t (Array.append [| Value.Str user |] row))
        (profile_result p).Exec.rows)
    profiles

(* ------------------------------- runs ------------------------------- *)

type ctx = {
  cli : string;  (* the perso_cli executable *)
  dir : string;  (* this run's working directory *)
  seed : int;
  seconds : float;  (* measured time of one run *)
  smoke : bool;
}

type metric = { name : string; value : float; unit_ : string }

type result = {
  metrics : metric list;  (* the gated metrics, end-to-end or per-layer *)
  diags : metric list;  (* printed for the reader, not gated *)
  attempted : int;
  failed : int;
  problems : string list;  (* oracle, ledger or restart mismatches *)
}

let m name value unit_ = { name; value; unit_ }

(* ------------------------------ files ------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
