(** Transfer-method implementations — one {!Mpicd_harness.Harness.impl}
    builder per method the paper's evaluation compares.

    A builder called with [?inputs] uses that source and sink, so the
    methods of one figure point can share one pair: each re-zeroes the
    sink when it is called, and none writes the source.  Without
    [?inputs] a builder allocates its own. *)

module Buf = Mpicd_buf.Buf
module H = Mpicd_harness.Harness
module B = Mpicd_bench_types.Bench_types
module Kernel = Mpicd_ddtbench.Kernel

type 'a inputs = { src : 'a; sink : 'a }
(** A method's source and sink. *)

type slabs = Buf.t inputs
(** One buffer each way: a struct array or a DDTBench slab. *)

(** {1 double-vec (Figs. 1–2)} *)

val dv_inputs : subvec:int -> total:int -> B.Double_vec.t inputs
(** A generated double-vec and a sink of its shape. *)

val dv_custom :
  ?inputs:B.Double_vec.t inputs -> subvec:int -> total:int -> unit -> H.impl
(** The custom datatype API: packed length header + one zero-copy
    region per subvector. *)

val dv_manual :
  ?inputs:B.Double_vec.t inputs -> subvec:int -> total:int -> unit -> H.impl
(** Manual packing into an allocated byte buffer (charged). *)

val bytes_baseline : total:int -> unit -> H.impl
(** rsmpi-bytes-baseline: the same bytes as one contiguous buffer. *)

(** {1 struct types (Figs. 3–7)} *)

val st_inputs : (module B.STRUCT) -> count:int -> slabs
(** [count] generated elements and a sink for as many. *)

val st_custom : ?inputs:slabs -> (module B.STRUCT) -> count:int -> unit -> H.impl
val st_manual : ?inputs:slabs -> (module B.STRUCT) -> count:int -> unit -> H.impl
val st_rsmpi : ?inputs:slabs -> (module B.STRUCT) -> count:int -> unit -> H.impl
(** The derived-datatype baseline (RSMPI over the Open MPI engine). *)

(** {1 DDTBench kernels (Fig. 10)}

    The methods of one kernel share one source slab and one sink slab. *)

val slabs : Kernel.kernel -> slabs
(** A pattern-filled source slab and a sink slab for the kernel. *)

val k_reference : Kernel.kernel -> slabs -> unit -> H.impl
(** Contiguous pingpong of the same wire size (upper bound): the first
    [wire_bytes] of the source slab into those of the sink. *)

val k_manual : Kernel.kernel -> slabs -> unit -> H.impl
val k_ddt_direct : Kernel.kernel -> slabs -> unit -> H.impl
(** Send/receive directly with the derived datatype engine. *)

val k_custom_pack : Kernel.kernel -> slabs -> unit -> H.impl
val k_custom_regions : Kernel.kernel -> slabs -> (unit -> H.impl) option
(** [None] when the kernel's Table-I row marks regions impracticable. *)

val kernel_methods :
  Kernel.kernel -> slabs -> (string * (unit -> H.impl) option) list
(** The six Fig. 10 methods in column order (reference, manual-pack,
    mpi-ddt, mpi-pack-ddt, custom-pack, custom-regions), named as in
    the figure. *)
