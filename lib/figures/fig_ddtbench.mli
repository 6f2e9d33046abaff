(** Table I and Figure 10: the DDTBench evaluation (paper §V-C). *)

module Kernel = Mpicd_ddtbench.Kernel

val method_names : string list
(** Column labels of Fig. 10, in order: reference, manual-pack,
    mpi-ddt, mpi-pack-ddt, custom-pack, custom-regions. *)

val print_fig10 : ?kernels:Kernel.kernel list -> unit -> unit
val fig10_csv : path:string -> ?kernels:Kernel.kernel list -> unit -> unit
val print_table1 : unit -> unit
