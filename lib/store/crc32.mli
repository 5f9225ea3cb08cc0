(** CRC-32 (IEEE 802.3, the zlib polynomial) over strings.

    Used to checksum every frame of the profile store's write-ahead log:
    cheap enough to run on each append, strong enough that a torn or
    bit-flipped frame is detected at recovery instead of being replayed
    as data.  Pure OCaml table-driven implementation; the check value
    for ["123456789"] is [0xCBF43926]. *)

val string : string -> int
(** CRC-32 of a whole string, in [0, 0xFFFFFFFF]. *)

val sub : string -> pos:int -> len:int -> int
(** CRC-32 of a substring. @raise Invalid_argument on bad bounds. *)

val matching_prefix : string -> pos:int -> int -> int option
(** The least [len] with [sub s ~pos ~len = crc], if any, in one pass.
    @raise Invalid_argument on a bad [pos]. *)
