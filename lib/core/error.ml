type t =
  | Parse of string
  | Lex of { msg : string; pos : int }
  | Bind of string
  | Not_conjunctive of string
  | Profile of string
  | Storage of string
  | Resource_exhausted of Relal.Governor.progress
  | Overloaded of string
  | Usage of string
  | Internal of string

let no_progress exhausted =
  { Relal.Governor.exhausted; rows_produced = 0; expansions = 0;
    elapsed_ms = 0. }

exception Typed of t

let of_exn = function
  | Typed t -> Some t
  | Relal.Sql_parser.Parse_error e -> Some (Parse e)
  | Relal.Sql_lexer.Lex_error (msg, pos) -> Some (Lex { msg; pos })
  | Relal.Binder.Bind_error e -> Some (Bind e)
  | Qgraph.Not_conjunctive e -> Some (Not_conjunctive e)
  | Integrate.Integration_error e -> Some (Internal ("integration: " ^ e))
  | Relal.Exec.Exec_error e -> Some (Internal e)
  | Relal.Csv.Csv_error e -> Some (Storage e)
  | Relal.Ddl.Ddl_error e -> Some (Storage e)
  | Sys_error e -> Some (Storage e)
  | Relal.Governor.Exhausted p -> Some (Resource_exhausted p)
  | Relal.Chaos.Injected { point; transient } -> (
      let msg =
        Printf.sprintf "injected %s fault at %s"
          (if transient then "transient" else "permanent")
          (Relal.Chaos.point_name point)
      in
      match point with
      | Relal.Chaos.Profile_load | Relal.Chaos.Persist_write
      | Relal.Chaos.Store_mutate | Relal.Chaos.Wal_append
      | Relal.Chaos.Wal_fsync | Relal.Chaos.Manifest_write
      | Relal.Chaos.Compact_write | Relal.Chaos.Compact_rename ->
          Some (Storage msg)
      | Relal.Chaos.Scan | Relal.Chaos.Join_build | Relal.Chaos.Join_probe ->
          Some (Internal msg))
  | Relal.Chaos.Crashed { point } ->
      Some
        (Storage
           (Printf.sprintf "simulated crash at %s"
              (Relal.Chaos.point_name point)))
  | Perso_store.Store.Store_error e ->
      Some (Storage (Perso_store.Store.error_to_string e))
  | Perso_store.Codec.Decode_error e ->
      Some (Storage ("profile record: " ^ e))
  | Stack_overflow -> Some (Resource_exhausted (no_progress "stack"))
  | Out_of_memory -> Some (Resource_exhausted (no_progress "memory"))
  | Invalid_argument e -> Some (Internal ("invalid argument: " ^ e))
  | Failure e -> Some (Internal e)
  | _ -> None

let of_exn_any e =
  match of_exn e with Some t -> t | None -> Internal (Printexc.to_string e)

let of_load_error e = Storage (Relal.Csv.load_error_to_string e)

let guard f =
  match f () with v -> Ok v | exception e -> Error (of_exn_any e)

let to_string = function
  | Parse e -> "parse error: " ^ e
  | Lex { msg; pos } -> Printf.sprintf "lex error: %s (at byte %d)" msg pos
  | Bind e -> "bind error: " ^ e
  | Not_conjunctive e -> "not a conjunctive SPJ query: " ^ e
  | Profile e -> "profile error: " ^ e
  | Storage e -> "storage error: " ^ e
  | Resource_exhausted p ->
      "resource exhausted: " ^ Relal.Governor.progress_to_string p
  | Overloaded e -> "overloaded: " ^ e
  | Usage e -> "usage error: " ^ e
  | Internal e -> "internal error: " ^ e

let pp fmt t = Format.pp_print_string fmt (to_string t)

let family_name = function
  | Parse _ -> "parse"
  | Lex _ -> "lex"
  | Bind _ -> "bind"
  | Not_conjunctive _ -> "not-conjunctive"
  | Profile _ -> "profile"
  | Storage _ -> "storage"
  | Resource_exhausted _ -> "resource-exhausted"
  | Overloaded _ -> "overloaded"
  | Usage _ -> "usage"
  | Internal _ -> "internal"

(* One exit code per family, so scripts can branch: user errors are
   retriable after fixing the request, storage errors after fixing the
   data, resource errors with a bigger budget, overload errors by
   retrying later against a less busy server. *)
let exit_code = function
  | Parse _ | Lex _ | Bind _ | Not_conjunctive _ | Profile _ -> 1
  | Storage _ -> 2
  | Resource_exhausted _ -> 3
  | Internal _ -> 4
  | Overloaded _ -> 5
  | Usage _ -> 6
