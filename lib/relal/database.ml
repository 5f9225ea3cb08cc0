let lc = String.lowercase_ascii

type extension = ..

type t = {
  tbl : (string, Table.t) Hashtbl.t;
  mutable order : string list; (* registration order, reversed *)
  mutable fk_list : Schema.fk list; (* reversed *)
  ext : extension option Atomic.t;
}

let create () =
  { tbl = Hashtbl.create 16; order = []; fk_list = []; ext = Atomic.make None }

let extension db = db.ext

let add_table db sch =
  let key = lc (Schema.name sch) in
  if Hashtbl.mem db.tbl key then
    invalid_arg ("Database.add_table: duplicate table " ^ Schema.name sch);
  Hashtbl.add db.tbl key (Table.create sch);
  db.order <- key :: db.order

let remove_table db name =
  let key = lc name in
  Hashtbl.remove db.tbl key;
  db.order <- List.filter (( <> ) key) db.order;
  db.fk_list <-
    List.filter
      (fun fk -> fk.Schema.from_table <> key && fk.to_table <> key)
      db.fk_list

let find_table db name = Hashtbl.find_opt db.tbl (lc name)

let table db name =
  match find_table db name with Some t -> t | None -> raise Not_found

let mem_table db name = Hashtbl.mem db.tbl (lc name)

let tables db = List.rev_map (fun k -> Hashtbl.find db.tbl k) db.order

let check_col db what tname cname =
  match find_table db tname with
  | None -> invalid_arg (Printf.sprintf "Database.add_fk: unknown %s table %s" what tname)
  | Some t -> (
      match Schema.col_type (Table.schema t) cname with
      | None ->
          invalid_arg
            (Printf.sprintf "Database.add_fk: unknown column %s.%s" tname cname)
      | Some ty -> ty)

let add_fk db ~from_:(t1, c1) ~to_:(t2, c2) =
  let ty1 = check_col db "source" t1 c1 in
  let ty2 = check_col db "target" t2 c2 in
  if not (Value.compatible ty1 ty2) then
    invalid_arg
      (Printf.sprintf "Database.add_fk: %s.%s (%s) vs %s.%s (%s)" t1 c1
         (Value.ty_name ty1) t2 c2 (Value.ty_name ty2));
  db.fk_list <-
    { Schema.from_table = lc t1; from_col = lc c1; to_table = lc t2; to_col = lc c2 }
    :: db.fk_list

let fks db = List.rev db.fk_list

let insert db tname row = Table.insert_values (table db tname) row

let join_is_to_one db ~from_:(_t1, _c1) ~to_:(t2, c2) =
  match find_table db t2 with
  | None -> invalid_arg ("Database.join_is_to_one: unknown table " ^ t2)
  | Some t -> Schema.is_unique_col (Table.schema t) c2

let index_fk_columns db =
  List.iter
    (fun { Schema.from_table; from_col; to_table; to_col } ->
      Table.build_index (table db from_table) from_col;
      Table.build_index (table db to_table) to_col)
    (fks db)

let index_all_columns db =
  List.iter
    (fun t ->
      Array.iter
        (fun c -> Table.build_index t c.Schema.cname)
        (Schema.columns (Table.schema t)))
    (tables db)

let pp_summary fmt db =
  List.iter
    (fun t ->
      Format.fprintf fmt "%-12s %8d rows@." (Schema.name (Table.schema t))
        (Table.cardinality t))
    (tables db)
