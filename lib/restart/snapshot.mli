(** Plan-serialized buffer snapshots.

    A snapshot is the checkpoint image of one registered application
    buffer: a fixed 64-byte versioned header followed by the buffer's
    packed representation, produced by the compiled
    {!Mpicd_datatype.Plan} engine — so the payload is byte-for-byte
    identical to what a wire transfer of the same (datatype, count)
    would carry (the qcheck property in [test_restart.ml] proves this
    against {!Mpicd_datatype.Datatype.pack}).

    Header layout (little-endian):
    {v
      [ 0..3 ]  magic "MCKP"
      [ 4..7 ]  format version (1)
      [ 8..15]  epoch
      [16..23]  world rank
      [24..31]  communicator id
      [32..39]  element count
      [40..43]  CRC-32 of the datatype's RLE type signature
      [44..47]  reserved (zero)
      [48..55]  payload length in bytes
      [56..59]  CRC-32 of the payload
      [60..63]  CRC-32 of header bytes [0..59]
    v}

    Decoding fails closed: every validation step returns a typed
    {!error} instead of scattering garbage into the destination
    buffer.  The payload is only unpacked after the header CRC, the
    payload CRC, the type-signature digest and the element count have
    all checked out. *)

module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype

type meta = {
  epoch : int;
  rank : int;  (** world rank that wrote the snapshot *)
  cid : int;  (** communicator id the buffer was registered under *)
  count : int;
  sig_crc : int32;  (** digest of the writer's RLE type signature *)
  payload_len : int;
}

type error =
  | Too_short of { need : int; got : int }
      (** shorter than the fixed header (or empty) *)
  | Bad_magic of int32
  | Bad_version of int
  | Header_crc_mismatch
      (** header bytes corrupted; none of the fields can be trusted *)
  | Truncated_payload of { expected : int; got : int }
      (** header intact but payload bytes are missing (or do not match
          the plan's packed size for the stored count) *)
  | Payload_crc_mismatch
  | Signature_mismatch of { stored : int32; expected : int32 }
      (** decoding against a datatype whose type signature differs from
          the writer's *)
  | Count_mismatch of { stored : int; expected : int }

exception Corrupt_snapshot of error

val error_to_string : error -> string

val header_size : int

val signature_crc : Dt.t -> int32
(** CRC-32 of the canonical encoding of [Dt.rle_signature]: equal for
    signature-equal types, regardless of how the layout was built. *)

val encoded_size : Dt.t -> count:int -> int
(** Exact byte size of [encode]'s result. *)

val encode :
  ?stats:Mpicd_simnet.Stats.t ->
  epoch:int ->
  rank:int ->
  cid:int ->
  dt:Dt.t ->
  count:int ->
  src:Buf.t ->
  unit ->
  Buf.t
(** Snapshot [count] elements of [dt] laid out in [src] (offset 0).
    Packs through the compiled plan cache ([stats] feeds the plan
    cache counters, exactly like a typed send). *)

val decode :
  ?stats:Mpicd_simnet.Stats.t ->
  dt:Dt.t ->
  count:int ->
  dst:Buf.t ->
  Buf.t ->
  (meta, error) result
(** Validate the full image against [(dt, count)] and, only if every
    check passes, unpack the payload into [dst] (which must hold the
    type's extent footprint).  On [Error _], [dst] is untouched. *)

val decode_exn :
  ?stats:Mpicd_simnet.Stats.t -> dt:Dt.t -> count:int -> dst:Buf.t -> Buf.t -> meta
(** [decode], raising {!Corrupt_snapshot} on validation failure. *)
