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

(** {1 DDTBench kernels (Fig. 10)} *)

val k_reference : Kernel.kernel -> unit -> H.impl
(** Contiguous pingpong of the same wire size (upper bound). *)

val k_manual : Kernel.kernel -> unit -> H.impl
val k_ddt_direct : Kernel.kernel -> unit -> H.impl
(** Send/receive directly with the derived datatype engine. *)

val k_ddt_pack : Kernel.kernel -> unit -> H.impl
(** MPI_Pack into a buffer, send bytes, MPI_Unpack. *)

val k_custom_pack : Kernel.kernel -> unit -> H.impl
val k_custom_regions : Kernel.kernel -> (unit -> H.impl) option
(** [None] when the kernel's Table-I row marks regions impracticable;
    decided without building any buffers. *)
