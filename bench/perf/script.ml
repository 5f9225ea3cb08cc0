(* The seeded request script of a served workload.

   The whole stream is precomputed from the seed before anything is
   sent, as a sequence of segments run one after the other: an open
   segment carries Poisson due times (offsets from the segment's start),
   a closed segment a fixed number of requests sent back to back.  Every
   request names a user, and a request is routed to a connection by that
   user, so each user's requests arrive in script order and the profile
   a request sees is fixed by the script alone. *)

type kind = Personalize | Run | Save | Load

type req = {
  idx : int;
  kind : kind;
  user : string;
  line : string;  (* the wire command *)
  at : float;  (* due offset from the segment's start; 0 when closed *)
  check : bool;  (* in the oracle's sample *)
  saved : Perso.Profile.t option;  (* the profile a PROFILE SAVE sends *)
}

type segment = Open_for of float  (* seconds *) | Closed of int  (* requests *)

type t = {
  reqs : req array;
  segs : (int * int) array;  (* per segment: first index, length *)
}

let segment t k =
  let first, len = t.segs.(k) in
  Array.sub t.reqs first len

let kind_name = function
  | Personalize -> "personalize"
  | Run -> "run"
  | Save -> "save"
  | Load -> "load"

let conn_of ~conns (r : req) = Hashtbl.hash r.user mod conns

let new_degree rng old =
  let rec go () =
    let d = Float.round ((0.3 +. Putil.Rng.float rng 0.7) *. 1000.) /. 1000. in
    if d = old then go () else d
  in
  Perso.Degree.of_float (go ())

(* 70% of edits retune one selection of the user's current profile, 30%
   replace the profile with a freshly generated one. *)
let edit rng ~db ~selections ~user current =
  if Putil.Rng.int rng 100 < 70 then
    match Perso.Profile.selections current with
    | [] -> current
    | sels ->
        let s, d = List.nth sels (Putil.Rng.int rng (List.length sels)) in
        Perso.Profile.add current (Perso.Atom.Sel s)
          (new_degree rng (Perso.Degree.to_float d))
  else
    Spec.profile db ~seed:(Putil.Rng.int rng 1_000_000_000) ~user ~selections

let generate (s : Spec.served) ~db ~sqls ~(profiles : Perso.Profile.t array)
    ~seed segments =
  let rng = Putil.Rng.split (Putil.Rng.create seed) in
  let users = Putil.Zipf.create ~n:s.users ~s:s.user_zipf in
  let tmpls = Putil.Zipf.create ~n:s.templates ~s:s.template_zipf in
  let current = Array.copy profiles in
  let reqs = ref [] and n = ref 0 in
  let add ~at =
    let u = Putil.Zipf.sample users rng in
    let user = Spec.user_name u in
    let pick = Putil.Rng.int rng 100 in
    let m = s.mix in
    let kind =
      if pick < m.personalize then Personalize
      else if pick < m.personalize + m.run then Run
      else if pick < m.personalize + m.run + m.save then Save
      else Load
    in
    let check = Putil.Rng.int rng 10 = 0 in
    let line, saved =
      match kind with
      | Personalize ->
          ( Printf.sprintf "PERSONALIZE %s %s" user
              sqls.(Putil.Zipf.sample tmpls rng),
            None )
      | Run -> ("RUN " ^ sqls.(Putil.Zipf.sample tmpls rng), None)
      | Load -> ("PROFILE LOAD " ^ user, None)
      | Save ->
          let p = edit rng ~db ~selections:s.selections ~user:u current.(u) in
          current.(u) <- p;
          (Printf.sprintf "PROFILE SAVE %s %s" user (Spec.wire_entries p), Some p)
    in
    reqs := { idx = !n; kind; user; line; at; check; saved } :: !reqs;
    incr n
  in
  (* Inverse-CDF exponential gaps; 1 - u keeps the log argument > 0. *)
  let rec arrivals ~len t =
    let t = t -. (log (1. -. Putil.Rng.float rng 1.) /. s.rate) in
    if t < len then begin
      add ~at:t;
      arrivals ~len t
    end
  in
  let segs =
    List.map
      (fun sg ->
        let first = !n in
        (match sg with
        | Open_for len -> arrivals ~len 0.
        | Closed count ->
            for _ = 1 to count do
              add ~at:0.
            done);
        (first, !n - first))
      segments
  in
  { reqs = Array.of_list (List.rev !reqs); segs = Array.of_list segs }

(* A byte-exact rendering, for determinism checks. *)
let to_string t =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (first, len) -> Printf.bprintf b "segment %d %d\n" first len)
    t.segs;
  Array.iter
    (fun r -> Printf.bprintf b "%d %h %b %s\n" r.idx r.at r.check r.line)
    t.reqs;
  Buffer.contents b
