(** Compiled pack plans.

    A plan is a datatype flattened once into displacement / length
    arrays plus a prefix sum of packed offsets — the TEMPI-style
    canonical representation (Pearson et al.) that lets the pack engine
    run straight array loops instead of re-interpreting the datatype
    tree on every call.

    Plans are compiled per {e element}: [count] elements tile the typed
    buffer with stride {!extent} and the packed stream with stride
    {!size}, so plan memory never depends on [count].  Fragment entry
    points ({!pack_range}/{!unpack_range}) locate the starting block by
    binary search over the prefix sums (O(log B)); a {!cursor} turns a
    sequential fragment stream into amortized O(1) resumes.

    Plans only change host-side execution.  The simulator's
    virtual-time cost model keeps charging per interpreter-equivalent
    block, so simulation results are bit-identical to the interpreter
    path. *)

type t
(** A handle on a datatype's plan.  A handle from {!get} is compiled on
    first use: the first query, copy, {!cursor} or {!iovec} compiles
    it, and later uses reuse the result, so a committed datatype no
    operation touches costs its handle and nothing more.  A {!cursor}
    holds the compiled plan, so a fragment stream tests nothing.  A
    handle is a lazy value: two domains must not use an uncompiled one
    at once.  Code that fans out over domains compiles every plan it
    will share first (use each handle, e.g. {!size}), which also keeps
    compiles out of timed regions. *)

val build : Datatype.t -> t
(** Flatten one element of the datatype (merged contiguous blocks, in
    typemap order) into a fresh plan, bypassing the cache.  It compiles
    at once. *)

(** {1 Memoization}

    Plans are cached per datatype {e value}, keyed on physical equality:
    committing a datatype once and reusing it hits the cache on every
    subsequent operation.  The cache is process-global, thread-safe and
    bounded. *)

val get : ?stats:Mpicd_simnet.Stats.t -> Datatype.t -> t
(** Cached plan handle.  A miss stores a handle that compiles on first
    use; a hit returns the stored one, compiled or not.  When [stats] is
    given, records a plan-cache hit or miss
    ([Plan_cache_hits] or [Plan_cache_misses] in {!Mpicd_simnet.Stats}). *)

val clear_cache : unit -> unit
(** Drop all cached plans and zero the global hit/miss counters
    (test isolation). *)

val cache_hits : unit -> int
val cache_misses : unit -> int

(** {1 Queries} — same values as the corresponding [Datatype] queries
    on the source datatype. *)

val size : t -> int
val extent : t -> int
val packed_size : t -> count:int -> int

val block_count : t -> int
(** Merged contiguous blocks per element (= [Datatype.blocks_per_element]). *)

val is_contiguous : t -> bool

(** {1 Pack / unpack}

    Byte-for-byte identical to the [Datatype] interpreter engine,
    including the per-block [stats] accounting
    (one [Ddt_blocks_processed] and one [Stats.record_copy] per block).

    Blocks are copied by a kernel inlined into the plan's loops.
    Without [stats], a run of whole elements (all [count] of them, or
    the whole elements of a {!pack_range}/{!unpack_range} window) is
    checked once: the typed span of its first and last element, the
    stream window, and that the typed buffer and the stream are
    distinct bigstrings.  A run that passes is copied with no per-block
    range test: as 8-byte word loads and stores, which may overlap,
    when every block is 8-32 bytes and an element takes at most 256
    words, else block by block.  Everything else goes block by block
    with one range test each: a 4-32 byte block between two distinct
    bigstrings moves as two or four word loads and stores, and any
    other block (longer, typed buffer and stream cut from one
    bigstring, out of range) goes through {!Mpicd_buf.Buf.blit}.  So
    the results, and on a bad range the [Invalid_argument] and the
    blocks written before it, are those of one [Buf.blit] per block.
    Without [stats] these entry points, and {!pack_range}/{!unpack_range},
    allocate nothing. *)

val pack :
  ?stats:Mpicd_simnet.Stats.t -> t -> count:int -> src:Mpicd_buf.Buf.t ->
  dst:Mpicd_buf.Buf.t -> int

val unpack :
  ?stats:Mpicd_simnet.Stats.t -> t -> count:int -> src:Mpicd_buf.Buf.t ->
  dst:Mpicd_buf.Buf.t -> unit

(** {1 Fragment streams} *)

type cursor
(** Mutable resume point for a fragment stream over one (plan, count)
    pair.  Passing the cursor to {!pack_range}/{!unpack_range} makes a
    fragment that starts where the previous one ended resume in O(1);
    any other offset re-seeks by binary search.  A cursor must not be
    shared between concurrent streams. *)

val cursor : t -> cursor

val cursor_resumes : cursor -> int
(** Fragments that resumed in O(1) (diagnostics/tests). *)

val cursor_reseeks : cursor -> int
(** Fragments that needed a binary-search re-seek. *)

val pack_range :
  ?stats:Mpicd_simnet.Stats.t -> ?cursor:cursor -> t -> count:int ->
  src:Mpicd_buf.Buf.t -> packed_off:int -> dst:Mpicd_buf.Buf.t -> int
(** Write bytes [packed_off .. packed_off + length dst - 1] of the
    packed stream into [dst]; returns bytes written (short only at end
    of stream). *)

val unpack_range :
  ?stats:Mpicd_simnet.Stats.t -> ?cursor:cursor -> t -> count:int ->
  src:Mpicd_buf.Buf.t -> packed_off:int -> dst:Mpicd_buf.Buf.t -> int
(** Scatter the fragment [src] (virtual offset [packed_off] of the
    packed stream) into the typed layout [dst]; returns bytes consumed,
    mirroring {!pack_range}. *)

val region_table : t -> Mpicd_buf.Buf.Iov.table
(** One element's blocks as a region table: entry [i] is block [i] at
    its typed displacement, so [Buf.Iov.of_table base (region_table p)]
    lists the blocks of the element at [base], unmerged, with no copy.
    It shares the plan's arrays.
    @raise Invalid_argument if a displacement is negative. *)

val iovec : t -> count:int -> base:Mpicd_buf.Buf.t -> Mpicd_buf.Buf.t list
(** Zero-copy region list; entry-for-entry identical to
    [Datatype.iovec] (including cross-element merging). *)
