type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Date of int

type ty = TInt | TFloat | TStr | TBool | TDate

let ty_of = function
  | Null -> None
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Str _ -> Some TStr
  | Bool _ -> Some TBool
  | Date _ -> Some TDate

let ty_name = function
  | TInt -> "int"
  | TFloat -> "float"
  | TStr -> "string"
  | TBool -> "bool"
  | TDate -> "date"

let compatible a b =
  match (a, b) with
  | TInt, TFloat | TFloat, TInt -> true
  | _ -> a = b

(* [Int x] against [Float y] by the numbers they stand for, NaN lowest as
   in [Float.compare].  Below 2^62, [Float.to_int] truncates exactly. *)
let compare_int_float x y =
  if Float.is_nan y || y < -0x1p62 then 1
  else if y >= 0x1p62 then -1
  else
    let t = Float.to_int y in
    if x < t then -1 else if x > t then 1 else Float.compare (Float.of_int t) y

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> -compare_int_float y x
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Date x, Date y -> Int.compare x y
  | _ ->
      invalid_arg
        (Printf.sprintf "Value.compare: incompatible values (%s, %s)"
           (match ty_of a with Some t -> ty_name t | None -> "null")
           (match ty_of b with Some t -> ty_name t | None -> "null"))

(* Is [y] an integer in int range, so that [Float.to_int y] is exact? *)
let int_valued y = Float.is_integer y && y >= -0x1p62 && y < 0x1p62

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> int_valued y && Float.to_int y = x
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | Date x, Date y -> x = y
  | _ -> false

(* Must agree with [equal]: two values get one key exactly when they are
   equal ints (an integral float as the int it equals); [min_int] is left
   to every other value, so [Int min_int] shares it with them. *)
let int_key = function
  | Int k -> k
  | Float f when int_valued f -> Float.to_int f
  | _ -> min_int

(* Must agree with [equal]: a float equal to an int hashes as that int.
   Hashing an immediate int does not allocate — the Int arm is the
   executor's join-probe hot path, so it must not box. *)
let hash = function
  | Null -> 0
  | Int x -> Hashtbl.hash x
  | Float x ->
      if int_valued x then Hashtbl.hash (Float.to_int x) else Hashtbl.hash x
  | Str s -> Hashtbl.hash s
  | Bool b -> Hashtbl.hash b
  | Date d -> Hashtbl.hash (d lxor 0x44)

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0 then 29 else 28
  | _ -> invalid_arg "Value.days_in_month"

let date_of_ymd y m d =
  if m < 1 || m > 12 then invalid_arg "Value.date_of_ymd: month out of range";
  if d < 1 || d > days_in_month y m then
    invalid_arg "Value.date_of_ymd: day out of range";
  Date ((y * 10000) + (m * 100) + d)

let parse_date s =
  let try_ints l = try Some (List.map int_of_string l) with Failure _ -> None in
  match String.split_on_char '-' s with
  | [ y; m; d ] -> (
      match try_ints [ y; m; d ] with
      | Some [ y; m; d ] -> ( try Some (date_of_ymd y m d) with Invalid_argument _ -> None)
      | _ -> None)
  | _ -> (
      match String.split_on_char '/' s with
      | [ d; m; y ] -> (
          match try_ints [ d; m; y ] with
          | Some [ d; m; y ] -> (
              try Some (date_of_ymd y m d) with Invalid_argument _ -> None)
          | _ -> None)
      | _ -> None)

(* The primitive [Printf.sprintf "%.12g"] ends in, without the format
   interpretation around it: the bytes are the same. *)
external format_float : string -> float -> string = "caml_format_float"

(* The last decimal digit of [x >= 0]. *)
let add_digit b x = Buffer.add_char b (Char.unsafe_chr (48 + (x mod 10)))

let add_to_buffer b = function
  | Null -> Buffer.add_string b "NULL"
  | Int i -> Buffer.add_string b (Int.to_string i)
  | Float f ->
      (* Keep a trailing ".0" so the value re-parses as a float. *)
      let s = format_float "%.12g" f in
      Buffer.add_string b s;
      if not (String.contains s '.' || String.contains s 'e' || String.contains s 'n')
      then Buffer.add_string b ".0"
  | Str s ->
      Buffer.add_char b '\'';
      let n = String.length s in
      let rec go start =
        match String.index_from_opt s start '\'' with
        | None -> Buffer.add_substring b s start (n - start)
        | Some i ->
            Buffer.add_substring b s start (i + 1 - start);
            Buffer.add_char b '\'';
            go (i + 1)
      in
      go 0;
      Buffer.add_char b '\''
  | Bool v -> Buffer.add_string b (if v then "TRUE" else "FALSE")
  | Date d when d >= 0 && d < 100_000_000 ->
      (* What the [Printf] arm below prints for a four-digit year, one
         digit at a time: a tenth of its cost. *)
      let y = d / 10000 and m = d / 100 mod 100 and dd = d mod 100 in
      Buffer.add_char b '\'';
      add_digit b (y / 1000);
      add_digit b (y / 100);
      add_digit b (y / 10);
      add_digit b y;
      Buffer.add_char b '-';
      add_digit b (m / 10);
      add_digit b m;
      Buffer.add_char b '-';
      add_digit b (dd / 10);
      add_digit b dd;
      Buffer.add_char b '\''
  | Date d ->
      Printf.bprintf b "'%04d-%02d-%02d'" (d / 10000) (d / 100 mod 100) (d mod 100)

let to_string v =
  let b = Buffer.create 16 in
  add_to_buffer b v;
  Buffer.contents b

let pp fmt v = Format.pp_print_string fmt (to_string v)
