(** Transfer-method implementations — one {!Mpicd_harness.Harness.impl}
    builder per method the paper's evaluation compares.  Each builder
    allocates its own buffers so every measurement starts fresh. *)

module Buf = Mpicd_buf.Buf
module H = Mpicd_harness.Harness
module B = Mpicd_bench_types.Bench_types
module Kernel = Mpicd_ddtbench.Kernel

(** {1 double-vec (Figs. 1–2)} *)

val dv_custom : subvec:int -> total:int -> unit -> H.impl
(** The custom datatype API: packed length header + one zero-copy
    region per subvector. *)

val dv_manual : subvec:int -> total:int -> unit -> H.impl
(** Manual packing into an allocated byte buffer (charged). *)

val bytes_baseline : total:int -> unit -> H.impl
(** rsmpi-bytes-baseline: the same bytes as one contiguous buffer. *)

(** {1 struct types (Figs. 3–7)} *)

val st_custom : (module B.STRUCT) -> count:int -> unit -> H.impl
val st_manual : (module B.STRUCT) -> count:int -> unit -> H.impl
val st_rsmpi : (module B.STRUCT) -> count:int -> unit -> H.impl
(** The derived-datatype baseline (RSMPI over the Open MPI engine). *)

(** {1 DDTBench kernels (Fig. 10)}

    The methods of one kernel share one source slab and one sink slab;
    each builder re-zeroes the sink when it is called. *)

type slabs = { src : Buf.t; sink : Buf.t }

val slabs : Kernel.kernel -> slabs
(** A pattern-filled source slab and a sink slab for the kernel. *)

val k_reference : Kernel.kernel -> unit -> H.impl
(** Contiguous pingpong of the same wire size (upper bound). *)

val k_manual : Kernel.kernel -> slabs -> unit -> H.impl
val k_ddt_direct : Kernel.kernel -> slabs -> unit -> H.impl
(** Send/receive directly with the derived datatype engine. *)

val k_ddt_pack : Kernel.kernel -> slabs -> unit -> H.impl
(** MPI_Pack into a buffer, send bytes, MPI_Unpack. *)

val k_custom_pack : Kernel.kernel -> slabs -> unit -> H.impl
val k_custom_regions : Kernel.kernel -> slabs -> (unit -> H.impl) option
(** [None] when the kernel's Table-I row marks regions impracticable. *)

val kernel_methods :
  Kernel.kernel -> slabs -> (string * (unit -> H.impl) option) list
(** The six Fig. 10 methods in column order (reference, manual-pack,
    mpi-ddt, mpi-pack-ddt, custom-pack, custom-regions), named as in
    the figure. *)
