exception Decode_error of string

type ctx = { data : string; mutable pos : int }

type 'a t = { enc : Buffer.t -> 'a -> unit; dec : ctx -> 'a }

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* Compared as [n > length - pos]: for a decoded length near [max_int],
   [pos + n] overflows to a negative int and would pass. *)
let need ctx n =
  if n < 0 || n > String.length ctx.data - ctx.pos then
    fail "truncated record: need %d bytes at offset %d of %d" n ctx.pos
      (String.length ctx.data)

let u8 =
  {
    enc = (fun b v -> Buffer.add_char b (Char.chr (v land 0xFF)));
    dec =
      (fun ctx ->
        need ctx 1;
        let v = Char.code ctx.data.[ctx.pos] in
        ctx.pos <- ctx.pos + 1;
        v);
  }

(* LEB128: 7 value bits per byte, high bit = continuation. *)
let varint =
  {
    enc =
      (fun b v ->
        if v < 0 then invalid_arg "Codec.varint: negative";
        let rec go v =
          if v < 0x80 then Buffer.add_char b (Char.chr v)
          else begin
            Buffer.add_char b (Char.chr (0x80 lor (v land 0x7F)));
            go (v lsr 7)
          end
        in
        go v);
    dec =
      (fun ctx ->
        let rec go acc shift =
          need ctx 1;
          let byte = Char.code ctx.data.[ctx.pos] in
          (* The ninth byte carries bits 56-62; bit 62 is the sign bit
             of a 63-bit int, so a non-negative int leaves that byte
             below 0x40 (which also rules out a continuation). *)
          if shift = 56 && byte > 0x3F then
            fail "varint at offset %d does not fit a non-negative int" ctx.pos;
          ctx.pos <- ctx.pos + 1;
          let acc = acc lor ((byte land 0x7F) lsl shift) in
          if byte land 0x80 = 0 then acc else go acc (shift + 7)
        in
        go 0 0);
  }

let float64 =
  {
    enc =
      (fun b v ->
        let bits = Int64.bits_of_float v in
        let bytes = Bytes.create 8 in
        Bytes.set_int64_le bytes 0 bits;
        Buffer.add_bytes b bytes);
    dec =
      (fun ctx ->
        need ctx 8;
        let bits = String.get_int64_le ctx.data ctx.pos in
        ctx.pos <- ctx.pos + 8;
        Int64.float_of_bits bits);
  }

let string =
  {
    enc =
      (fun b v ->
        varint.enc b (String.length v);
        Buffer.add_string b v);
    dec =
      (fun ctx ->
        let len = varint.dec ctx in
        need ctx len;
        let s = String.sub ctx.data ctx.pos len in
        ctx.pos <- ctx.pos + len;
        s);
  }

let list item =
  {
    enc =
      (fun b v ->
        varint.enc b (List.length v);
        List.iter (item.enc b) v);
    dec =
      (fun ctx ->
        let n = varint.dec ctx in
        (* Each element costs at least one byte, so a count larger than
           the remaining payload is garbage — reject before allocating. *)
        if n < 0 || n > String.length ctx.data - ctx.pos then
          fail "list count %d exceeds remaining payload at offset %d" n
            ctx.pos;
        List.init n (fun _ -> item.dec ctx));
  }

let encode c v =
  let b = Buffer.create 64 in
  c.enc b v;
  Buffer.contents b

let decode c s =
  let ctx = { data = s; pos = 0 } in
  match c.dec ctx with
  | v ->
      if ctx.pos <> String.length s then
        Error
          (Printf.sprintf "trailing garbage: %d of %d bytes consumed"
             ctx.pos (String.length s))
      else Ok v
  | exception Decode_error e -> Error e

(* ----------------------------- records ----------------------------- *)

type entry = { cond : string; degree : float }

type record =
  | Put of { user : string; revision : int; entries : entry list }
  | Delete of { user : string; revision : int }

let record_user = function Put { user; _ } | Delete { user; _ } -> user

let record_revision = function
  | Put { revision; _ } | Delete { revision; _ } -> revision

let entry_c =
  {
    enc =
      (fun b e ->
        string.enc b e.cond;
        float64.enc b e.degree);
    dec =
      (fun ctx ->
        let cond = string.dec ctx in
        let degree = float64.dec ctx in
        { cond; degree });
  }

let put_tag = 1
let delete_tag = 2

let record_c =
  {
    enc =
      (fun b r ->
        match r with
        | Put { user; revision; entries } ->
            u8.enc b put_tag;
            string.enc b user;
            varint.enc b revision;
            (list entry_c).enc b entries
        | Delete { user; revision } ->
            u8.enc b delete_tag;
            string.enc b user;
            varint.enc b revision);
    dec =
      (fun ctx ->
        let tag = u8.dec ctx in
        if tag = put_tag then begin
          let user = string.dec ctx in
          let revision = varint.dec ctx in
          let entries = (list entry_c).dec ctx in
          Put { user; revision; entries }
        end
        else if tag = delete_tag then begin
          let user = string.dec ctx in
          let revision = varint.dec ctx in
          Delete { user; revision }
        end
        else fail "unknown record tag %d" tag);
  }

let encode_record = encode record_c
let decode_record = decode record_c
