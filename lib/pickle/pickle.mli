(** A pickle-like serializer for a Python-style object model.

    Stands in for Python's [pickle] module in the paper's mpi4py
    experiments.  Two modes, matching pickle protocols 4 and 5:

    - {b in-band} (protocol 4): the whole object graph, including large
      array payloads, is flattened into one contiguous byte stream —
      doubling memory for large objects, the problem the paper's §II-C
      describes;
    - {b out-of-band} (protocol 5, PEP 574): large buffers are not
      copied into the stream; instead the stream carries references and
      the serializer returns the buffers as zero-copy slices, the way
      [pickle.dumps(obj, protocol=5, buffer_callback=...)] hands out
      [PickleBuffer]s.

    The wire format is our own compact opcode stream (it does not try
    to be byte-compatible with CPython), but the structure — a small
    metadata header of ~100 bytes plus the raw array payload — matches
    what the paper reports for NumPy arrays. *)

module Buf = Mpicd_buf.Buf

type dtype = F64 | F32 | I64 | I32 | U8

type ndarray = { shape : int array; dtype : dtype; data : Buf.t }
(** NumPy-style array: [data] holds [numel * itemsize] bytes. *)

type t =
  | None_
  | Bool of bool
  | Int of int64
  | Float of float
  | Str of string
  | Bytes of Buf.t
  | List of t list
  | Tuple of t list
  | Dict of (t * t) list
  | Ndarray of ndarray

exception Corrupt of string
(** Raised by {!loads} on malformed input — serialization libraries can
    fail on invalid data, which is why the custom datatype API
    propagates callback errors. *)

val ndarray : ?dtype:dtype -> int array -> ndarray
(** Fresh zero-filled array of the given shape (dtype defaults to F64). *)

val ndarray_of_floats : float array -> ndarray
val floats_of_ndarray : ndarray -> float array

(** {1 Serialization} *)

val dumps : t -> Buf.t
(** In-band (protocol 4): everything in one stream. *)

val dumps_oob : ?oob_threshold:int -> t -> Buf.t * Buf.t list
(** Out-of-band (protocol 5): returns the in-band header and the list
    of out-of-band buffers in reference order.  Ndarray payloads and
    [Bytes] values of at least [oob_threshold] bytes (default 1024) go
    out of band; the returned buffers {e alias} the object's memory
    (zero-copy). *)

val loads : ?buffers:Buf.t list -> Buf.t -> t
(** Reconstruct an object.  [buffers] supplies the out-of-band buffers
    for a protocol-5 stream, in the same order [dumps_oob] returned
    them; reconstructed arrays alias these buffers (zero-copy receive).
    @raise Corrupt on malformed data or missing buffers. *)

(** {1 Introspection} *)

val equal : t -> t -> bool
(** Structural equality ([Ndarray] payloads compared byte-wise). *)

val visit_count : t -> int
(** Number of nodes in the object graph (drives the per-object
    traversal cost in the simulator). *)

val payload_bytes : t -> int
(** Total bytes of array/bytes payloads in the graph. *)

val pp : Format.formatter -> t -> unit
