type column = { cname : string; cty : Value.ty }

type t = {
  tname : string;
  cols : column array;
  names : string array;
  key : string list;
  unique : string list;
}

type fk = {
  from_table : string;
  from_col : string;
  to_table : string;
  to_col : string;
}

let lc = String.lowercase_ascii

let make ~name ~cols ?(key = []) ?(unique = []) () =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (c, _) ->
      let c = lc c in
      if Hashtbl.mem seen c then
        invalid_arg (Printf.sprintf "Schema.make: duplicate column %s.%s" name c);
      Hashtbl.add seen c ())
    cols;
  let check_exists what c =
    if not (Hashtbl.mem seen (lc c)) then
      invalid_arg
        (Printf.sprintf "Schema.make: %s column %s not in table %s" what c name)
  in
  List.iter (check_exists "key") key;
  List.iter (check_exists "unique") unique;
  {
    tname = name;
    cols = Array.of_list (List.map (fun (c, ty) -> { cname = c; cty = ty }) cols);
    names = Array.of_list (List.map (fun (c, _) -> lc c) cols);
    key = List.map lc key;
    unique = List.map lc unique;
  }

let name s = s.tname
let columns s = s.cols
let arity s = Array.length s.cols
let col_names s = s.names

let col_index s c =
  let c = lc c in
  let n = Array.length s.names in
  let rec go i =
    if i >= n then None else if String.equal s.names.(i) c then Some i else go (i + 1)
  in
  go 0

let col_type s c =
  match col_index s c with None -> None | Some i -> Some s.cols.(i).cty

let mem_col s c = col_index s c <> None

let is_unique_col s c =
  let c = lc c in
  (match s.key with [ k ] -> k = c | _ -> false) || List.mem c s.unique

let pp fmt s =
  Format.fprintf fmt "%s(%s%s)" s.tname
    (String.concat ", "
       (Array.to_list
          (Array.map (fun c -> c.cname ^ " " ^ Value.ty_name c.cty) s.cols)))
    (match s.key with
    | [] -> ""
    | ks -> "; key: " ^ String.concat ", " ks)
