(** Resumable block cursors.

    A DDTBench kernel's exchange is, at bottom, an ordered list of
    (slab offset, length) blocks.  The paper packs such lists with C++
    coroutines ([std::generator]) so the pack callback can pause
    mid-loop-nest when its destination fragment fills up; this module is
    the equivalent explicit state machine: the prefix-sum table lets a
    pack/unpack callback resume at any virtual offset of the packed
    stream in O(log n_blocks) — no coroutine (and no vectorization bug)
    required. *)

module Buf = Mpicd_buf.Buf

type t
(** A block table.  One made by {!defer} is built on first use: the
    first {!total}, {!count}, copy or walk builds it, and later uses
    reuse it, so a layout nothing exchanges costs only its generator.
    A table is a lazy value: two domains must not use an unbuilt one at
    once. *)

val of_list : (int * int) list -> t
(** [(slab_offset, len)] blocks in packed-stream order, built at once.
    @raise Invalid_argument on negative lengths. *)

val defer : (unit -> (int * int) list) -> t
(** The table {!of_list} would build from the generator's list, built
    on first use.  A generator that raises builds nothing: the use
    raises, and so does the next one.
    @raise Invalid_argument on first use, on negative lengths. *)

val checked : t -> check:(int -> unit) -> t
(** The same table, whose first use also passes its {!total} to
    [check].  When [check] raises, that use raises, and so does every
    later use of the result; the table itself stays usable. *)

val total : t -> int
(** Packed size: sum of block lengths. *)

val count : t -> int

val pack_range : t -> base:Buf.t -> offset:int -> dst:Buf.t -> int
(** Copy packed-stream bytes [offset .. offset + length dst) out of the
    slab; returns the bytes produced (short only at end of stream). *)

val unpack_range : t -> base:Buf.t -> offset:int -> src:Buf.t -> unit
(** Scatter a fragment starting at packed-stream [offset] into the slab. *)

val equal_typed : t -> Buf.t -> Buf.t -> bool
(** Compare the block-covered bytes of two slabs. *)

val iter : t -> f:(off:int -> len:int -> unit) -> unit
