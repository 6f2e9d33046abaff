(** DDTBench kernel framework.

    Each kernel (cf. Schneider, Gerstenberger, Hoefler: "Micro-
    Applications for Communication Data Access Patterns and MPI
    Datatypes", EuroMPI'12) models the halo/boundary exchange of a real
    application on a slab of raw memory.  A kernel provides:

    - the exchange's block layout inside the slab,
    - hand-written [manual_pack]/[manual_unpack] loop nests (the
      "manual packing using C code" method),
    - a classic derived datatype equivalent (the "MPI datatypes"
      methods), and
    - via {!Make}, custom-API datatypes: [custom_pack] (pack/unpack
      callbacks resumable at any offset) and, where the paper marks
      memory regions as sensible, [custom_regions] (zero-copy iovecs).

    All methods move exactly the same bytes, which the tests verify.

    A kernel builds nothing big when its module initialises: its block
    table and its plan are built the first time an operation uses them,
    so a process that runs no kernel carries only each kernel's derived
    datatype. *)

module Buf = Mpicd_buf.Buf
module Datatype = Mpicd_datatype.Datatype
module Plan = Mpicd_datatype.Plan
module Custom = Mpicd.Custom

(** What a concrete kernel defines. *)
module type SPEC = sig
  val name : string
  val datatypes_desc : string  (** Table I "MPI Datatypes" column *)

  val loop_desc : string  (** Table I "Loop Structure" column *)

  val regions_sensible : bool  (** Table I "Memory Regions" column *)

  val slab_bytes : int  (** size of the application's memory slab *)

  val blocks : Blocks.t
  (** The exchange layout, usually {!Blocks.defer}red so that it is
      built the first time {!KERNEL.blocks} is used.  Kernels with one
      layout may share one table. *)

  val manual_pack : Buf.t -> dst:Buf.t -> unit
  val manual_unpack : src:Buf.t -> Buf.t -> unit
  val derived : Datatype.t  (** equivalent derived datatype (count=1) *)
end

(** What the benchmarks consume. *)
module type KERNEL = sig
  include SPEC

  val blocks : Blocks.t
  (** The spec's layout, checked on its first use.  That first use
      raises [Invalid_argument], naming the kernel, when the
      blocks' total differs from [Datatype.size derived]. *)

  val wire_bytes : int  (** [Datatype.size derived] *)

  val plan : Plan.t
      (** pack plan of [derived] from the global cache, compiled on first
          use and shared by all operations *)

  val create : unit -> Buf.t  (** pattern-filled slab *)

  val create_sink : unit -> Buf.t
  val equal : Buf.t -> Buf.t -> bool  (** compares exchange-covered bytes *)

  val custom_pack : Buf.t Custom.t
  val custom_regions : Buf.t Custom.t option
end

module Make (S : SPEC) : KERNEL

type kernel = (module KERNEL)

val fill : Buf.t -> unit
(** Deterministic test pattern used by [create]: byte [i] is
    [(131 i + 17) mod 256]. *)
