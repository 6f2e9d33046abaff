(** Cost-model parameters for the simulated testbed.

    Defaults are calibrated to the paper's platform: two Dell R7525
    servers (EPYC 7232P) with ConnectX-5 InfiniBand at 100 Gb/s, UCX
    1.12 (16 KiB eager/rendezvous switch).  Every parameter is a plain
    field so benchmarks can sweep them for ablation studies. *)

type link = {
  latency_ns : float;  (** one-way wire latency *)
  ns_per_byte : float;  (** inverse bandwidth of the link *)
  per_msg_overhead_ns : float;  (** CPU posting cost per message per side *)
  eager_limit : int;  (** bytes; above this, contiguous sends use rendezvous *)
  rndv_handshake_ns : float;  (** extra RTS/CTS round-trip cost *)
  rndv_reg_ns : float;  (** memory-registration cost per rendezvous *)
  iov_entry_ns : float;  (** per scatter/gather entry overhead *)
  iov_max_entries : int;  (** hardware SGE list limit; longer lists chunk *)
  frag_size : int;  (** pipeline fragment size for GENERIC packing *)
}

type cpu = {
  memcpy_ns_per_byte : float;  (** pack/unpack/copy streaming rate *)
  alloc_base_ns : float;  (** fixed malloc cost *)
  alloc_ns_per_byte : float;  (** first-touch page-fault cost *)
  pack_cb_overhead_ns : float;  (** fixed cost of one pack/unpack callback *)
  pack_piece_ns : float;
      (** per-contiguous-piece cost of CPU pack/unpack loops (gathering
          many small blocks is slower than one streaming copy) *)
  ddt_block_ns : float;
      (** per-typemap-block cost of the classic datatype engine; this is
          what penalises gapped struct types (paper Fig. 5 vs Fig. 6) *)
  ddt_node_ns : float;
      (** per-descriptor-node (tree node or index-array entry) cost of
          committing / compiling a datatype; this is what the
          {!Mpicd_datatype.Normalize} rewrites reduce *)
  object_visit_ns : float;  (** per-object cost of the pickle traversal *)
}

type gpu = {
  pcie_ns_per_byte : float;  (** host<->device staging bandwidth *)
  kernel_launch_ns : float;  (** fixed cost of launching a pack kernel *)
  hbm_ns_per_byte : float;  (** on-device pack/copy streaming rate *)
  gpu_piece_ns : float;  (** per-contiguous-piece cost of a device pack kernel *)
}
(** Accelerator-memory model for the §VI device-buffer extension. *)

type t = {
  link : link;
  cpu : cpu;
  gpu : gpu;
}

val default : t

val default_link : link
val default_cpu : cpu

(** {1 Derived cost helpers} *)

val wire_time : link -> int -> float
(** [wire_time l bytes] = serialization time of [bytes] on the link
    (excluding base latency). *)

val memcpy_time : cpu -> int -> float
val alloc_time : cpu -> int -> float

val pp : Format.formatter -> t -> unit
