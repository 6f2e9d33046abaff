(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) over {!Buf}
    slices.

    The reliable-delivery protocol models every wire fragment as
    stamped with this checksum.  Any single-bit in-flight corruption is
    guaranteed to change the digest (the tests check it for fragments
    up to the fragment size), so a checked corrupt fragment is nacked
    without digesting it.  Snapshots and the explorer's fingerprints
    digest their bytes with it. *)

val digest : Mpicd_buf.Buf.t -> int32

val digest_sub : Mpicd_buf.Buf.t -> pos:int -> len:int -> int32
(** Digest of the slice [\[pos, pos+len)].
    @raise Invalid_argument if the range does not fit. *)
