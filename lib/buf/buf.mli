(** Raw memory buffers for the mpicd stack.

    All message payloads, packed representations and zero-copy regions in
    this repository are slices of off-heap [Bigarray] byte buffers
    ("bigstrings").  This mirrors the role of raw [void*] memory in the
    paper's C/Rust prototype: regions can alias each other, can be
    sub-sliced without copying, and carry explicit lengths. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A [t] is a view (offset + length) into a bigstring.  Slicing is O(1)
    and never copies. *)
type t = { base : bigstring; off : int; len : int }

val create : int -> t
(** [create n] allocates a fresh zero-filled buffer of [n] bytes. *)

val fresh_buffers : unit -> int
(** Bigarrays allocated so far by {!create}, {!copy}, {!of_string},
    {!concat} and a {!Pool} miss; {!Slabs} chunks are not counted (see
    {!Slabs.carved_slots}).  The difference across a run counts the
    fresh storage a path allocates. *)

val of_bigstring : bigstring -> t

val length : t -> int

val sub : t -> pos:int -> len:int -> t
(** [sub b ~pos ~len] is the slice [b.[pos .. pos+len-1]].
    @raise Invalid_argument if the range does not fit. *)

val is_empty : t -> bool

(** {1 Byte access} *)

val get : t -> int -> char
val set : t -> int -> char -> unit
val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit

(** {1 Little-endian scalar access}

    Multibyte accessors use little-endian order on every host, matching
    the x86-64 testbed of the paper.  Each is one word-sized load or
    store after the bounds check.  Offsets are in bytes and need not be
    aligned.
    @raise Invalid_argument if the scalar does not fit in the view. *)

val get_i32 : t -> int -> int32
val set_i32 : t -> int -> int32 -> unit
val get_i64 : t -> int -> int64
val set_i64 : t -> int -> int64 -> unit
val get_f64 : t -> int -> float
val set_f64 : t -> int -> float -> unit
val get_f32 : t -> int -> float
val set_f32 : t -> int -> float -> unit

val get_u32 : t -> int -> int
(** [get_u32 b i] is the little-endian 32-bit word at [i] as an
    immediate in [0 .. 0xffff_ffff].  Unlike {!get_f32} it allocates
    nothing and copies float bit patterns exactly (a signalling NaN
    stays signalling). *)

val set_u32 : t -> int -> int -> unit
(** [set_u32 b i v] stores the low 32 bits of [v] at [i], little-endian. *)

(** {1 Bulk operations} *)

(** Every bulk copy below raises [Invalid_argument] when [len] is
    negative or either range does not fit its buffer, as [Bytes.blit]
    does. *)

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Copy [len] bytes.  Overlapping ranges behave like [memmove]. *)

val fill : t -> char -> unit
(** [fill b c] sets every byte of the view to [c], and allocates
    nothing. *)

val repeat_prefix : t -> period:int -> unit
(** [repeat_prefix b ~period] copies the first [period] bytes of [b]
    over the rest of it, so that byte [i] ends equal to byte
    [i mod period].  It makes O(log (length b / period)) block copies,
    so a periodic pattern costs one period of per-byte writes.
    @raise Invalid_argument if [period <= 0]. *)

val copy : t -> t
(** Deep copy into a fresh buffer of the same length. *)

val equal : t -> t -> bool
(** Byte-wise equality of contents. *)

val of_string : string -> t
val to_string : t -> string

val blit_from_string : string -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
val blit_to_bytes : src:t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> len:int -> unit

val blit_from_floats :
  float array -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** [blit_from_floats a ~src_pos ~dst ~dst_pos ~len] stores the [len]
    floats [a.(src_pos) .. a.(src_pos + len - 1)] at byte offset
    [dst_pos] of [dst], each as the little-endian binary64 word that
    {!set_f64} writes (NaN payloads and signed zeros included).
    @raise Invalid_argument if either range does not fit. *)

val blit_to_floats :
  src:t -> src_pos:int -> dst:float array -> dst_pos:int -> len:int -> unit
(** [blit_to_floats ~src ~src_pos ~dst ~dst_pos ~len] reads [len]
    binary64 words from byte offset [src_pos] of [src] into
    [dst.(dst_pos) ..], bit for bit as {!get_f64} would.
    @raise Invalid_argument if either range does not fit. *)

val concat : t list -> t
(** Fresh buffer holding the concatenation of the slices. *)

val hexdump : ?max_bytes:int -> t -> string
(** Human-readable hex dump, for debugging and error messages. *)

val same_memory : t -> t -> bool
(** [same_memory a b] is [true] iff the two slices denote exactly the
    same byte range of the same underlying bigstring (used by tests to
    assert zero-copy behaviour). *)

val overlaps : t -> t -> bool
(** Whether the two slices share at least one byte of storage. *)

(** {1 Recycling} *)

(** A bounded recycler of whole buffers, in exact-length classes.

    Every buffer allocated and dropped costs more than its [malloc]:
    OCaml charges its off-heap bytes to the major GC's budget, so a
    stream of short-lived buffers paces major collections by bytes.
    A pool lets the one owner of a buffer give it back for the next
    request of the same length.  Its rules:

    - {!Pool.take} returns a zero-filled buffer, recycled or fresh, so a
      reuse is indistinguishable from {!create};
    - {!Pool.give} accepts only a whole buffer that this pool lent and
      that has not come back since.  A {!sub} view, a buffer of another
      length, a buffer given twice or one the pool never lent is
      ignored.  Each length class remembers its
      {!Pool.max_class_buffers} most recent loans, and so keeps them
      reachable; an older loan can no longer return;
    - it keeps at most {!Pool.max_class_buffers} free buffers per
      length, at most {!Pool.max_classes} lengths, and at most
      {!Pool.max_bytes} free bytes in all ({!Pool.retained_bytes}).

    Giving a buffer back is a promise that nothing reads or writes it
    any more, with or without faults: a buffer a failed transfer may
    still write into is dropped, not given.  A pool allocates nothing
    until its first {!Pool.take}. *)
module Pool : sig
  type buf := t
  type t

  val max_bytes : int
  (** 32 MiB. *)

  val max_class_buffers : int
  (** 64. *)

  val max_classes : int
  (** 64. *)

  val create : unit -> t
  (** An empty pool. *)

  val take : t -> int -> buf
  (** [take p n] lends a zero-filled [n]-byte buffer.
      @raise Invalid_argument if [n < 0]. *)

  val give : t -> buf -> unit
  (** Return a buffer that [take] lent; anything else is ignored. *)

  val retained_bytes : t -> int
  (** Bytes held in free buffers. *)

  val hits : t -> int
  (** Takes served by a recycled buffer. *)

  val misses : t -> int
  (** Takes that allocated. *)
end

(** Storage for buffers that live until a matching {!Slabs.give}, in
    any order: each is a view of a [2^c]-byte slot, for the smallest
    [c] that fits, carved out of a shared chunk of up to 64 KiB.  Given-back slots
    are reused by later takes of their class, so the storage grows to
    the largest number of buffers alive at once and then allocates
    nothing but the views; no buffer is a bigarray of its own. *)
module Slabs : sig
  type buf := t
  type t

  val create : unit -> t

  val take : t -> int -> buf
  (** [take s n] is an [n]-byte buffer of unspecified contents.  [n <= 0]
      gives an empty buffer. *)

  val give : t -> buf -> unit
  (** Return a buffer that {!take} lent and nothing reads or writes any
      more, exactly once.  An empty buffer is ignored. *)

  val free_slots : t -> int
  (** Slots held for reuse. *)

  val carved_slots : t -> int
  (** Slots carved so far.  Once every buffer {!take} lent has been
      given back, exactly once, this equals {!free_slots}: fewer free
      slots is a leak, more is a slot given back twice. *)
end

(** {1 Region lists} *)

(** A list of memory regions as one value: what the paper's regions
    callback returns as its [reg_bases]/[reg_lens] arrays (Listing 5),
    and what the transport reads as [UCP_DATATYPE_IOV] reads its
    (pointer, length) array.  Entry [i] is the {!len} bytes at byte
    {!off} of the bigstring {!base}.

    Building a list copies neither bytes nor entries: {!of_array}
    wraps the views a callback built, and {!of_table} cuts entries out
    of one buffer by an offset/length table that every list of the same
    layout shares. *)
module Iov : sig
  type buf := t
  type t

  type table
  (** Offsets and lengths of a layout's entries, relative to a base
      buffer. *)

  val table : offs:int array -> lens:int array -> table
  (** [table ~offs ~lens] has entry [i] at offset [offs.(i)], [lens.(i)]
      bytes long.  It shares the arrays, which must not change after.
      @raise Invalid_argument if their lengths differ, or an offset or
      a length is negative. *)

  val empty : t
  val of_array : buf array -> t
  (** The views, in order.  It shares the array, which must not change
      while the list is in use. *)

  val of_list : buf list -> t

  val of_table : buf -> table -> t
  (** [of_table b tbl]: entry [i] is the view of [b] that [tbl]'s entry
      [i] names.
      @raise Invalid_argument if an entry does not fit in [b]. *)

  val cons : buf -> t -> t
  (** One view in front of a list. *)

  val count : t -> int
  (** Entries, empty ones included. *)

  val total : t -> int
  (** Bytes in all entries. *)

  val base : t -> int -> bigstring
  val off : t -> int -> int
  val len : t -> int -> int

  val get : t -> int -> buf
  (** Entry [i] as a view.  Raises [Invalid_argument] out of range, as
      {!base}, {!off} and {!len} do. *)

  val blit : src:t -> dst:t -> unit
  (** Copy the [total src] bytes of [src]'s entries, in order, into the
      first bytes of [dst]'s, as entry-by-entry copies would.  A run of
      adjacent entries, where each after the first has its
      predecessor's base and starts where it ends, is copied as one
      span on either side, so a stretch that is one run in both lists is
      one copy.
      @raise Invalid_argument if [total src > total dst] ("payload
      exceeds receive regions"). *)

  val gather : t -> dst:buf -> unit
  (** [gather t ~dst] is {!blit} into the one entry [dst]. *)
end
