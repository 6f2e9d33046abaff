(** The custom serialization datatype API — the paper's contribution.

    A custom datatype is created from a set of application callbacks
    (paper Listings 2–5, [MPI_Type_create_custom]):

    - {b state} / {b state_free} — per-operation state, created when an
      MPI operation first touches a buffer of this type and freed when
      the operation completes (Listing 3).  The C API's [void *context]
      argument is subsumed by OCaml closures: capture whatever you need.
    - {b query} — the total packed size of a buffer (Listing 4); used by
      the implementation to size wire buffers and, on the receive side,
      to know how many packed bytes to expect.
    - {b pack} / {b unpack} — fragment-wise serialization at a virtual
      byte offset into the packed stream (Listing 4).  [pack] may fill
      its destination only partially (return the bytes produced);
      the engine comes back with a new fragment for the rest.
    - {b region_count} / {b regions} — optional zero-copy memory regions
      (iovecs, Listing 5).  Regions are transferred directly by the
      transport without packing; on the receive side they designate the
      destination memory.

    When a buffer of a custom type is sent, the engine builds a
    scatter/gather message whose first entry is the packed data and
    whose remaining entries are the regions — exactly the layout the
    paper's prototype hands to [UCP_DATATYPE_IOV]. *)

module Buf = Mpicd_buf.Buf

exception Error of int
(** Callbacks signal failure by raising [Error code]; the code is
    surfaced as a [Callback_failed] status on the affected operation
    (the paper's [MPI_SUCCESS]-or-error return-value convention). *)

type ('obj, 'state) callbacks = {
  state : 'obj -> count:int -> 'state;
      (** [statefn]: create per-operation state for [count] elements
          rooted at [obj]. *)
  state_free : 'state -> unit;  (** [freefn] *)
  query : 'state -> 'obj -> count:int -> int;
      (** [queryfn]: total packed size in bytes. *)
  pack : 'state -> 'obj -> count:int -> offset:int -> dst:Buf.t -> int;
      (** [packfn]: write packed bytes starting at virtual [offset] into
          [dst]; return bytes produced (0 < n <= length dst unless the
          stream is exhausted). *)
  unpack : 'state -> 'obj -> count:int -> offset:int -> src:Buf.t -> unit;
      (** [unpackfn]: consume a fragment of the packed stream that
          starts at virtual [offset]. *)
  region_count : ('state -> 'obj -> count:int -> int) option;
      (** [region_countfn]: number of zero-copy regions, if any. *)
  regions : ('state -> 'obj -> count:int -> Buf.Iov.t) option;
      (** [regionfn]: the regions themselves, as one list: the views the
          callback built ({!Buf.Iov.of_array}), or a shared
          offset/length table over one buffer ({!Buf.Iov.of_table}).
          On the send side they are gathered onto the wire; on the
          receive side they are scattered into.  All regions are
          byte-typed (the C API's [reg_types] generalization is exposed
          in {!Mpicd_capi}). *)
}

type 'obj t
(** A committed custom datatype for buffers of type ['obj]. *)

val create :
  ?inorder:bool ->
  ?pack_pieces:('obj -> count:int -> int) ->
  ('obj, 'state) callbacks ->
  'obj t
(** [create cb] — [MPI_Type_create_custom].  [pack_pieces] is a
    simulation hint: how many contiguous memory pieces the pack loop
    touches for a given buffer (the engine charges
    {!Mpicd_simnet.Config.cpu.pack_piece_ns} per piece, modelling the
    slowdown of gathering scattered blocks versus one streaming copy).
    [inorder] (default [true])
    requests that pack/unpack fragments be presented in increasing
    offset order; setting it to [false] permits the engine to reorder
    fragment unpacking (our engine does so only when asked to via
    {!val:Mpi.set_unpack_shuffle}, mirroring the paper's prototype which
    "always provides in-order packing"). *)

val inorder : _ t -> bool

(** {1 Engine-side interface}

    Used by the MPI layer; applications normally don't call these. *)

type 'obj op
(** An in-flight operation's view of a buffer: datatype + state. *)

val start : 'obj t -> 'obj -> count:int -> 'obj op
(** Run the state callback. *)

val finish : _ op -> unit
(** Run the state_free callback (idempotent). *)

val packed_size : 'obj op -> int
val pack : 'obj op -> offset:int -> dst:Buf.t -> int
val unpack : 'obj op -> offset:int -> src:Buf.t -> unit
val regions : 'obj op -> Buf.Iov.t
(** Empty when the type exposes no regions. *)

val region_count : 'obj op -> int
val op_inorder : _ op -> bool
val pack_pieces : 'obj op -> int
(** The declared piece count for this operation (0 when no hint). *)
