(** DDTBench kernel framework.

    Each kernel (cf. Schneider, Gerstenberger, Hoefler: "Micro-
    Applications for Communication Data Access Patterns and MPI
    Datatypes", EuroMPI'12) models the halo/boundary exchange of a real
    application on a slab of raw memory.  A kernel's layout is its
    [derived] datatype and that type's compiled {!KERNEL.plan}: the
    plan's block table is the one description every method reads.  A
    kernel provides:

    - the derived datatype (the "MPI datatypes" methods),
    - hand-written [manual_pack]/[manual_unpack] loop nests (the
      "manual packing using C code" method), which the tests check byte
      for byte against the plan, and
    - via {!Make}, custom-API datatypes: [custom_pack] (pack/unpack
      callbacks resumable at any offset through a plan cursor) and,
      where the paper marks memory regions as sensible,
      [custom_regions] (zero-copy iovecs cut by the plan's table).

    All methods move exactly the same bytes, which the tests verify.

    A kernel builds nothing big when its module initialises: its plan
    is compiled the first time an operation uses it, so a process that
    runs no kernel carries only each kernel's derived datatype. *)

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

  val manual_pack : Buf.t -> dst:Buf.t -> unit
  val manual_unpack : src:Buf.t -> Buf.t -> unit
  val derived : Datatype.t  (** equivalent derived datatype (count=1) *)
end

(** What the benchmarks consume. *)
module type KERNEL = sig
  include SPEC

  val wire_bytes : int  (** [Datatype.size derived] *)

  val plan : Plan.t
      (** pack plan of [derived] from the global cache, compiled on first
          use and shared by all operations *)

  val create : unit -> Buf.t  (** pattern-filled slab *)

  val create_sink : unit -> Buf.t
  val equal : Buf.t -> Buf.t -> bool
  (** Compares the bytes of every region of the plan's table, the
      exchange-covered bytes, and nothing else. *)

  val custom_pack : Buf.t Custom.t
  val custom_regions : Buf.t Custom.t option
end

module Make (S : SPEC) : KERNEL

type kernel = (module KERNEL)

val fill : Buf.t -> unit
(** Deterministic test pattern used by [create]: byte [i] is
    [(131 i + 17) mod 256]. *)
