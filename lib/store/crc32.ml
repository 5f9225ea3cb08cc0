(* CRC-32/IEEE, table-driven, reflected; OCaml ints hold the 32-bit
   state directly on 64-bit platforms. *)

let poly = 0xEDB88320

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let step t c s i =
  t.((c lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (c lsr 8)

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.sub";
  let t = Lazy.force table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := step t !c s i
  done;
  !c lxor 0xFFFFFFFF

let string s = sub s ~pos:0 ~len:(String.length s)

let matching_prefix s ~pos crc =
  if pos < 0 || pos > String.length s then invalid_arg "Crc32.matching_prefix";
  let t = Lazy.force table in
  let rec go c i =
    if c lxor 0xFFFFFFFF = crc then Some (i - pos)
    else if i = String.length s then None
    else go (step t c s i) (i + 1)
  in
  go 0xFFFFFFFF pos
