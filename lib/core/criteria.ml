type t =
  | Top_r of int
  | Above of Degree.t
  | Disj_above of Degree.t
  | Conj_above of Degree.t

let top_r r =
  if r < 0 then invalid_arg "Criteria.top_r: negative" else Top_r r

let above d = Above (Degree.of_float d)
let disj_above d = Disj_above (Degree.of_float d)
let conj_above d = Conj_above (Degree.of_float d)

let holds c degrees =
  match c with
  | Top_r r -> List.length degrees <= r
  | Above d -> (
      (* Degrees are decreasing: only the last (smallest) one matters. *)
      match List.rev degrees with
      | [] -> true
      | last :: _ -> Degree.compare last d > 0)
  | Disj_above d -> (
      match degrees with
      | [] -> true
      | _ -> Degree.compare (Degree.disj degrees) d > 0)
  | Conj_above d -> (
      match degrees with
      | [] -> true
      | _ -> Degree.compare (Degree.conj degrees) d > 0)

let accepts c ~current d = holds c (current @ [ d ])

(* The folds of [Degree.disj] and [Degree.conj], kept open: [sum] from
   [0.] and [prod] from [1.], left to right, so closing them over one
   more degree repeats the list definition's float operations exactly. *)
type acc = { count : int; sum : float; prod : float }

let acc_empty = { count = 0; sum = 0.; prod = 1. }

let acc_push a d =
  let d = Degree.to_float d in
  { count = a.count + 1; sum = a.sum +. d; prod = a.prod *. (1. -. d) }

let admits c a d =
  let x = Degree.to_float d in
  match c with
  | Top_r r -> a.count + 1 <= r
  | Above t -> Degree.compare d t > 0
  | Disj_above t ->
      Float.compare ((a.sum +. x) /. float_of_int (a.count + 1)) (Degree.to_float t)
      > 0
  | Conj_above t ->
      Float.compare (1. -. (a.prod *. (1. -. x))) (Degree.to_float t) > 0

let prefix_monotone = function
  | Top_r _ | Above _ | Disj_above _ -> true
  | Conj_above _ -> false

let expansion_prunable = function
  | Top_r _ | Above _ -> true
  | Disj_above _ | Conj_above _ -> false

let to_string = function
  | Top_r r -> Printf.sprintf "top %d" r
  | Above d -> Printf.sprintf "degree > %s" (Degree.to_string d)
  | Disj_above d -> Printf.sprintf "disjunction degree > %s" (Degree.to_string d)
  | Conj_above d -> Printf.sprintf "conjunction degree > %s" (Degree.to_string d)

let pp fmt c = Format.pp_print_string fmt (to_string c)
