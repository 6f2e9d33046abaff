(** The four Rust benchmark types of the paper's §V-A evaluation, with
    every transfer representation the figures compare:

    - {!Double_vec} — [Vec<Vec<i32>>]: a dynamic vector of heap
      subvectors (Figs. 1–2).  Not representable as a derived datatype;
      the baseline sends the same bytes as a raw byte stream
      (rsmpi-bytes-baseline).
    - {!Struct_vec} — [StructVec { a,b,c: i32, d: f64, data: [i32;2048] }]
      (Listing 6; Figs. 3–4): scalar fields that want packing plus a
      large array best sent as a memory region.
    - {!Struct_simple} — the same without the array (Listing 7;
      Figs. 5 and 7): pure packing, with a 4-byte C-layout gap.
    - {!Struct_simple_no_gap} — Listing 8 (Fig. 6): contiguous, needs
      no packing at all.

    Struct arrays are represented as raw memory with the exact C layout
    (a [Buf.t] of [count * sizeof] bytes), like the Rust originals. *)

module Buf = Mpicd_buf.Buf
module Datatype = Mpicd_datatype.Datatype
module Derive = Mpicd_derive.Derive
module Custom = Mpicd.Custom

val fill_pattern : ?seed:int -> Buf.t -> unit
(** Deterministic input pattern of every generated value: byte [i] is
    [(31 i + seed + 11) mod 256]; [seed] defaults to [0]. *)

module Double_vec : sig
  type t = Buf.t array
  (** Each entry is one subvector of i32s.  {!generate} and
      {!make_sink} carve a value's subvectors, in order and without
      overlap, from one allocation of their total size. *)

  val generate : subvec_bytes:int -> total_bytes:int -> t
  (** Deterministically filled subvectors: subvector [s] is
      {!fill_pattern} with seed [s].  If [total_bytes < subvec_bytes], a
      single subvector of [total_bytes] is produced (the paper's rule
      for small messages). *)

  val make_sink : subvec_bytes:int -> total_bytes:int -> t
  (** Zeroed structure of the same shape (receive side). *)

  val clear : t -> unit
  (** Zero every subvector: one fill for the whole of a carved value. *)

  val total_bytes : t -> int
  val equal : t -> t -> bool

  val custom_dt : t Custom.t
  (** Packed part: one i32 length per subvector; regions: the
      subvectors themselves (zero-copy). *)

  val manual_pack_size : t -> int
  val manual_pack : t -> dst:Buf.t -> unit
  (** [count:i32][len_i:i32...][data...] — the manual-pack wire format. *)

  val manual_unpack : src:Buf.t -> t -> unit
  (** Scatter a manually packed stream back into an existing structure
      of matching shape.  @raise Invalid_argument on shape mismatch. *)
end

(** Common interface of the three struct types. *)
module type STRUCT = sig
  val layout : Derive.layout
  val sizeof : int  (** bytes per element incl. padding *)

  val packed_elem_size : int  (** bytes per element on the wire *)

  val pieces_per_elem : int
  (** contiguous pieces a pack loop touches per element (cost model) *)

  val generate : count:int -> Buf.t
  val make_sink : count:int -> Buf.t
  val count_for_packed_bytes : int -> int
  (** Elements whose packed size best matches the requested total. *)

  val equal_elems : Buf.t -> Buf.t -> count:int -> bool
  (** Compare the typed fields of [count] elements (ignores padding). *)

  val derived : Datatype.t
  (** The RSMPI/Open MPI derived datatype (cached). *)

  val custom_dt : Buf.t Custom.t
  (** The custom-API representation; [obj] is the array base buffer and
      [count] the element count. *)

  val manual_pack : Buf.t -> count:int -> dst:Buf.t -> unit
  val manual_unpack : src:Buf.t -> Buf.t -> count:int -> unit
end

module Struct_vec : STRUCT
module Struct_simple : STRUCT
module Struct_simple_no_gap : STRUCT
