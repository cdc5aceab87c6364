(** Schema-aware binary codec for tuples and the primitive fields of
    WAL / snapshot frames.

    All integers are little-endian.  A tuple serialises as its table id
    followed by its field values; each value carries a one-byte type tag
    so that an [Int] living in a widened [TFloat] column round-trips to
    the exact same {!Jstar_core.Value.t} (digests hash the
    representation, so recovery must preserve it bit-for-bit).  Nothing
    here uses [Marshal]: frames are stable across builds and compiler
    versions, and every byte is validated on the way in. *)

exception Codec_error of string
(** Raised by the decoders on truncated input, unknown tags, out-of-range
    table ids, or a field that fails the schema's type check. *)

val schema_hash : Jstar_core.Schema.t array -> int
(** CRC-32 of a canonical description of every table (names, columns,
    types, key arity, orderby).  Stored in file headers; restore-time
    validation refuses files written under a different program shape. *)

(** {1 Primitive writers (onto a [Buffer.t])} *)

val put_u8 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
val put_i64 : Buffer.t -> int -> unit
val put_string : Buffer.t -> string -> unit
(** u32 length + raw bytes. *)

(** {1 Primitive readers (from [bytes] at a mutable position)} *)

val get_u8 : Bytes.t -> int ref -> int
val get_u32 : Bytes.t -> int ref -> int
val get_i64 : Bytes.t -> int ref -> int
val get_string : Bytes.t -> int ref -> string

(** {1 Tuples} *)

val encode_tuple : Buffer.t -> Jstar_core.Tuple.t -> unit

val tuple_size : Jstar_core.Tuple.t -> int
(** Exact length of the tuple's encoding. *)

val set_u32 : Bytes.t -> int -> int -> unit
(** [set_u32 dst off v]: {!put_u32} at a fixed offset. *)

val encode_tuple_into : Bytes.t -> int -> Jstar_core.Tuple.t -> int
(** [encode_tuple_into dst off t] writes the same bytes as
    {!encode_tuple} at [off] ({!tuple_size} of them) and returns the
    offset just past them. *)

val decode_tuple :
  tables:Jstar_core.Schema.t array -> Bytes.t -> int ref -> Jstar_core.Tuple.t
(** Rebuilds through {!Jstar_core.Tuple.make}, so arity and field types
    are re-checked against the schema.  @raise Codec_error *)
