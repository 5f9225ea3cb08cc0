(** Binary codec for profile-store records.

    Combinator style after [persistent.ml]'s table/decode/bind records
    (SNIPPETS.md): a codec is a pair of an encoder into a [Buffer.t] and
    a decoder over a cursor, composed bottom-up from fixed primitives —
    LEB128 varints for non-negative integers, IEEE-754 bits
    little-endian for degrees (bit-exact round trips, no text
    formatting), and length-prefixed bytes for strings.  The wire unit
    is {!record}: a [Put] carrying a user's full profile slice at a
    revision, or a [Delete] tombstone that still carries the revision so
    the high-water mark survives compaction and restart.

    Decoders never trust lengths: every read is bounds-checked against
    the payload and oversized counts fail early, so a corrupted frame
    that slipped past the CRC still surfaces as a typed decode error
    rather than an allocation blow-up. *)

exception Decode_error of string

type ctx
(** Decode cursor: payload bytes plus a mutable position. *)

type 'a t = { enc : Buffer.t -> 'a -> unit; dec : ctx -> 'a }

val u8 : int t

val varint : int t
(** LEB128; non-negative ints only.  Decoding refuses, with
    {!Decode_error}, a varint that does not fit a non-negative int (a
    ninth byte of [0x40] or more, or a tenth byte), so no decoded
    count, length or revision is ever negative. *)

val float64 : float t
(** IEEE-754 bits, little-endian; bit-exact. *)

val string : string t
(** Varint length prefix + raw bytes. *)

val list : 'a t -> 'a list t
(** Varint count prefix. *)

val encode : 'a t -> 'a -> string

val decode : 'a t -> string -> ('a, string) result
(** Decode requiring full consumption: trailing bytes are an error. *)

(** {1 Profile records} *)

type entry = { cond : string; degree : float }
(** One profile preference: the rendered atom condition and its degree
    of interest.  Matches the in-database [profiles] table row shape. *)

type record =
  | Put of { user : string; revision : int; entries : entry list }
  | Delete of { user : string; revision : int }

val record_user : record -> string
val record_revision : record -> int

val record_c : record t

val encode_record : record -> string
val decode_record : string -> (record, string) result
