module Chaos = Relal.Chaos

let header_bytes = 8

(* Payload lengths beyond this are treated as corruption, not torn
   tails: no single profile record comes anywhere close, and the cap
   keeps a garbage length field from masquerading as a frame that
   "needs more bytes". *)
let max_payload = 1 lsl 26

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (header_bytes + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.set_int32_le b 4 (Int32.of_int (Crc32.string payload));
  Bytes.blit_string payload 0 b header_bytes n;
  Bytes.unsafe_to_string b

type t = {
  path : string;
  fd : Unix.file_descr;
  fsync : bool;
  mutable size : int;
}

let open_append ?(fsync = true) path =
  Relal.Csv.file_io path @@ fun () ->
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  { path; fd; fsync; size }

let size t = t.size

let write_all fd s pos len =
  let written = ref 0 in
  while !written < len do
    written :=
      !written + Unix.write_substring fd s (pos + !written) (len - !written)
  done

(* Truncate back to the pre-append offset after a failed append.  Best
   effort: if even this fails the scan-side torn-tail handling still
   recovers, since a partial frame never checksums. *)
let undo t off = try Unix.ftruncate t.fd off with Unix.Unix_error _ -> ()

(* A "torn" prefix is a strict prefix of the frame: fraction 1.0 would
   leave a fully valid frame behind for a save that was never
   acknowledged. *)
let torn_len frac total =
  let n = int_of_float (frac *. float_of_int total) in
  max 0 (min n (total - 1))

let append ?(point = Chaos.Wal_append) t payload =
  let fr = frame payload in
  let off = t.size in
  Relal.Csv.file_io t.path (fun () ->
      ignore (Unix.lseek t.fd off Unix.SEEK_SET));
  let flip = ref None in
  (match Chaos.take_fault point with
  | None -> ()
  | Some (Chaos.Flip_byte frac) ->
      (* Latent corruption: the append itself succeeds; one byte of the
         file is damaged in place afterwards, for a CRC check to find. *)
      flip := Some frac
  | Some Chaos.Crash -> raise (Chaos.Crashed { point })
  | Some (Chaos.Torn_write frac) ->
      (try write_all t.fd fr 0 (torn_len frac (String.length fr))
       with Unix.Unix_error _ -> ());
      raise (Chaos.Crashed { point })
  | Some (Chaos.Short_write frac) ->
      (try write_all t.fd fr 0 (torn_len frac (String.length fr))
       with Unix.Unix_error _ -> ());
      undo t off;
      raise (Chaos.Injected { point; transient = true })
  | Some Chaos.Fsync_fail ->
      (try write_all t.fd fr 0 (String.length fr)
       with Unix.Unix_error _ -> ());
      undo t off;
      raise (Chaos.Injected { point; transient = true }));
  match
    Relal.Csv.file_io t.path (fun () ->
        Chaos.point point;
        write_all t.fd fr 0 (String.length fr);
        Chaos.point Chaos.Wal_fsync;
        if t.fsync then Unix.fsync t.fd)
  with
  | () ->
      t.size <- off + String.length fr;
      Option.iter (fun frac -> Chaos.flip_byte_in_file t.path frac) !flip;
      off
  | exception e ->
      (match e with Chaos.Crashed _ -> () | _ -> undo t off);
      raise e

let sync t = Relal.Csv.file_io t.path (fun () -> Unix.fsync t.fd)
let close t = Relal.Csv.file_io t.path (fun () -> Unix.close t.fd)

(* ------------------------------ reading ------------------------------ *)

type scan_end =
  | Clean
  | Torn of { at : int; detail : string }
  | Corrupt of { at : int; detail : string }

let u32le data pos = Int32.to_int (String.get_int32_le data pos) land 0xFFFFFFFF

let scan_string data f =
  let n = String.length data in
  let rec go pos =
    if pos = n then (pos, Clean)
    else if pos + header_bytes > n then
      ( pos,
        Torn
          {
            at = pos;
            detail =
              Printf.sprintf "partial frame header (%d of %d bytes)"
                (n - pos) header_bytes;
          } )
    else begin
      let len = u32le data pos in
      if len > max_payload then
        ( pos,
          Corrupt
            {
              at = pos;
              detail = Printf.sprintf "frame length %d exceeds cap" len;
            } )
      else if pos + header_bytes + len > n then
        (* A crash mid-append leaves a strict prefix of a frame, whose
           payload almost never checksums to its CRC: bytes after the
           header that do were written whole, under a damaged length. *)
        let detail =
          Printf.sprintf "frame needs %d payload bytes, %d present" len
            (n - pos - header_bytes)
        in
        let crc = u32le data (pos + 4) in
        ( pos,
          match Crc32.matching_prefix data ~pos:(pos + header_bytes) crc with
          | None -> Torn { at = pos; detail }
          | Some _ ->
              Corrupt { at = pos; detail = detail ^ ", and they match its checksum" }
        )
      else begin
        let crc = u32le data (pos + 4) in
        if Crc32.sub data ~pos:(pos + header_bytes) ~len <> crc then
          ( pos,
            Corrupt { at = pos; detail = "frame checksum mismatch" } )
        else begin
          f ~pos (String.sub data (pos + header_bytes) len);
          go (pos + header_bytes + len)
        end
      end
    end
  in
  go 0

let read_frame ~path ~off ~len =
  if len < header_bytes then
    Error (Printf.sprintf "frame length %d shorter than a header" len)
  else
    match
      In_channel.with_open_bin path (fun ic ->
          In_channel.seek ic (Int64.of_int off);
          really_input_string ic len)
    with
    | exception End_of_file ->
        Error
          (Printf.sprintf "frame at %d+%d runs past end of %s" off len path)
    | data ->
        let plen = u32le data 0 in
        if plen <> len - header_bytes then
          Error
            (Printf.sprintf
               "frame at %d: header says %d payload bytes, index says %d"
               off plen (len - header_bytes))
        else begin
          let crc = u32le data 4 in
          if Crc32.sub data ~pos:header_bytes ~len:plen <> crc then
            Error (Printf.sprintf "frame at %d: checksum mismatch" off)
          else Ok (String.sub data header_bytes plen)
        end
