(* The served-path oracle: what the server should have answered.

   Expected replies are computed in-process, cold, on the benchmark's
   own load of the data dir: [Personalize.personalize_sql_r] for
   PERSONALIZE, [Engine.run_sql] for RUN, the stored entries for
   PROFILE LOAD, the acknowledgement text for PROFILE SAVE.  A
   PERSONALIZE is checked against the user's profile as it stood at that
   point in the script: the initial profile from the data dir, or the
   last acknowledged save before it.  Columns, rows in order, and notes
   must all match. *)

open Relal
open Perso_server

type t = { db : Database.t; initial : (string, Perso.Profile.t) Hashtbl.t }

let create db = { db; initial = Hashtbl.create 64 }

let initial_profile t user =
  match Hashtbl.find_opt t.initial user with
  | Some p -> p
  | None -> (
      match Perso.Profile_store.load_r t.db ~user with
      | Ok p ->
          Hashtbl.add t.initial user p;
          p
      | Error e ->
          failwith ("oracle: stored profile: " ^ Perso.Error.to_string e))

let rows ?(notes = []) (res : Exec.result) =
  Protocol.Rows
    {
      notes = List.map Protocol.one_line notes;
      cols = Array.to_list res.Exec.cols;
      rows =
        List.map
          (fun r -> Array.to_list (Array.map Value.to_string r))
          res.Exec.rows;
    }

let failed e =
  Protocol.Failed
    {
      family = Perso.Error.family_name e;
      code = Perso.Error.exit_code e;
      message = Protocol.one_line (Perso.Error.to_string e);
    }

let profile_rows p = rows (Spec.profile_result p)

(* The model of every user's stored profile, advanced request by
   request in script order. *)
type model = { o : t; current : (string, Perso.Profile.t) Hashtbl.t }

let model o = { o; current = Hashtbl.create 64 }

let profile_of m user =
  match Hashtbl.find_opt m.current user with
  | Some p -> p
  | None -> initial_profile m.o user

let saved_profile (r : Script.req) =
  match r.saved with
  | Some p -> p
  | None -> failwith ("oracle: not a save: " ^ r.line)

(* The reply a request should get, given the profiles as they stand. *)
let expected m (r : Script.req) =
  match Protocol.parse_command r.line with
  | Ok (Protocol.Personalize { user; sql }) -> (
      match
        Perso.Personalize.personalize_sql_r m.o.db (profile_of m user) sql
      with
      | Ok run ->
          rows
            ~notes:
              (List.map Perso.Personalize.degradation_to_string
                 run.Perso.Personalize.degradations)
            run.Perso.Personalize.result
      | Error e -> failed e)
  | Ok (Protocol.Run sql) -> (
      match Perso.Error.guard (fun () -> Engine.run_sql m.o.db sql) with
      | Ok res -> rows res
      | Error e -> failed e)
  | Ok (Protocol.Profile_show user) -> profile_rows (profile_of m user)
  | Ok (Protocol.Profile_save { user; _ }) ->
      let n = Perso.Profile.cardinal (saved_profile r) in
      Protocol.Message (Printf.sprintf "saved user=%s entries=%d" user n)
  | Ok _ | Error _ -> failwith ("oracle: unexpected request: " ^ r.line)

(* Apply an acknowledged save to the model. *)
let acknowledge m (r : Script.req) =
  Hashtbl.replace m.current r.user (saved_profile r)

let describe = function
  | Protocol.Rows { notes; cols; rows } ->
      Printf.sprintf "rows=%d cols=[%s] notes=%d first=[%s]" (List.length rows)
        (String.concat "," cols) (List.length notes)
        (match rows with r :: _ -> String.concat "," r | [] -> "")
  | Protocol.Stats _ -> "stats"
  | Protocol.Message m -> "message " ^ m
  | Protocol.Failed { family; message; _ } -> "ERR " ^ family ^ " " ^ message

type verdict = { checked : int; mismatches : string list }

(* Walk the executed requests in script order.  [reply i] is the reply
   kept for request [i]: saves always keep theirs (it decides the
   model), other requests only when sampled.  At most [cap] sampled
   replies are checked, spread evenly over the run. *)
let check o ~(reqs : Script.req array) ~executed ~reply ~cap =
  let m = model o in
  let sampled =
    List.filter
      (fun i -> reqs.(i).Script.kind <> Script.Save && reply i <> None)
      executed
  in
  let n = List.length sampled in
  let stride = max 1 ((n + cap - 1) / max 1 cap) in
  let chosen = Hashtbl.create 64 in
  List.iteri
    (fun j i -> if j mod stride = 0 then Hashtbl.replace chosen i ())
    sampled;
  let checked = ref 0 and bad = ref [] in
  let compare_reply i got =
    let r = reqs.(i) in
    let want = expected m r in
    incr checked;
    if got <> want then
      bad :=
        Printf.sprintf "request %d (%s %s): got %s, want %s" i
          (Script.kind_name r.Script.kind) r.Script.user (describe got)
          (describe want)
        :: !bad
  in
  List.iter
    (fun i ->
      let r = reqs.(i) in
      match (r.Script.kind, reply i) with
      | Script.Save, Some got ->
          compare_reply i got;
          (match got with
          | Protocol.Message _ -> acknowledge m r
          | _ -> ())
      | Script.Save, None -> ()
      | _, Some got when Hashtbl.mem chosen i -> compare_reply i got
      | _ -> ())
    (List.sort compare executed);
  ({ checked = !checked; mismatches = List.rev !bad }, m)
