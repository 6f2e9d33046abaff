(** Accelerator-memory buffers — the paper's §VI device extension.

    "Packing and handling accelerator memory may require device kernels
    to run, as opposed to our host-based callbacks."  This module
    models that: buffers live in a memory {!space} (host or device);
    cross-space staging costs PCIe bandwidth, and packing
    device-resident data either

    - {b stages} the whole slab to the host and packs there
      ([Staged_host_pack] — what a host-callback implementation is
      forced to do),
    - runs a {b device pack kernel} (launch overhead + HBM-rate gather)
      and stages only the packed bytes ([Device_pack_staged]), or
    - runs the device kernel and hands the packed device buffer to the
      NIC directly ([Device_pack_direct] — GPUDirect-style), the design
      point a device-aware custom datatype API would enable.

    All data movement is performed for real (the simulated device
    memory is ordinary memory with a space tag), so correctness is
    testable; time is charged per the {!Mpicd_simnet.Config.gpu}
    model. *)

module Buf = Mpicd_buf.Buf
module Plan = Mpicd_datatype.Plan
module Mpi = Mpicd.Mpi

type space = Host | Device

exception Space_mismatch of string

type buf
(** A space-tagged buffer. *)

val create : space -> int -> buf
val data : buf -> Buf.t
(** The underlying memory.  Reading device memory from "host code" is a
    modelling convenience; all charged paths go through {!transfer} and
    {!pack_kernel}. *)

val length : buf -> int

val transfer : Mpi.comm -> src:buf -> dst:buf -> unit
(** Copy [src] into [dst] (equal lengths), charging by the spaces
    involved: host→host at memcpy rate, device→device at HBM rate,
    cross-space at PCIe rate.  Raises [Invalid_argument] on length
    mismatch. *)

val pack_kernel : Mpi.comm -> Plan.t -> src:buf -> dst:buf -> unit
(** Gather one element of the plan's layout from [src] into contiguous
    [dst], both in the same space.  Its [Plan.size] bytes are charged
    and its [Plan.block_count] blocks are the pieces.  On the device this charges one kernel launch plus
    HBM-rate per byte and a small per-piece cost; on the host it
    charges the usual CPU pack costs.
    @raise Space_mismatch if [src] and [dst] live in different spaces. *)

val unpack_kernel : Mpi.comm -> Plan.t -> src:buf -> dst:buf -> unit
(** Inverse scatter. *)

(** {1 Transfer methods for device-resident exchanges} *)

type method_ =
  | Staged_host_pack  (** stage slab D2H, pack on host, send, reverse *)
  | Device_pack_staged  (** pack on device, stage packed D2H, send *)
  | Device_pack_direct  (** pack on device, NIC reads device memory *)

val exchange_impl :
  method_ -> plan:Plan.t -> slab_bytes:int -> unit -> Mpicd_harness.Harness.impl
(** A ping-pong implementation exchanging one element of the plan's
    layout in a device-resident slab between two ranks under the given method (used by the
    device ablation bench and tests). *)
