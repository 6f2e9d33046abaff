(** Ablation benchmarks: each sweeps one cost-model parameter or
    algorithm choice and shows the corresponding paper effect moving
    with it (see EXPERIMENTS.md, A1–A7). *)

module Report = Mpicd_harness.Report

val eager_limit_sweep : unit -> Report.series list
(** A1: the Fig. 7 manual-pack dip follows the eager→rendezvous
    switch point. *)

val iov_entry_sweep : unit -> Report.series list
(** A2: the Fig. 1 subvector-size crossover is created by the
    per-iov-entry cost. *)

val ddt_block_sweep : unit -> Report.series list
(** A3: the Fig. 5 derived-datatype gap scales with the per-typemap-
    block cost. *)

val barrier_scaling : unit -> Report.series list
(** A4: linear vs dissemination barrier over world sizes. *)

val objmsg_costs : unit -> int * string list list
(** A5: per-strategy message counts, peak memory and copy
    amplification for one 8 MiB Python object, built once and sent
    under every strategy: [(bytes, objmsg_rows obj ~bytes)]. *)

val objmsg_rows : Mpicd_pickle.Pickle.t -> bytes:int -> string list list
(** A5's rows for [obj], one per strategy, each in its own 2-rank
    world, with peak memory and copies per [bytes].  The senders only
    read [obj]. *)

val print_objmsg_costs : unit -> unit

val print_threading : unit -> unit
(** A6: §VI's multithreaded tag-space hazard and locking overhead. *)

val print_device : unit -> unit
(** A7: §VI's accelerator-memory staging vs device pack kernels. *)

val profile_shares : ?kernel:string -> unit -> string * string list list
(** A8: per-method phase attribution from the wait-state profiler
    ({!Mpicd_obs.Profile}) on one DDTBench kernel (default
    [NAS_MG_x]): bandwidth, pack-time share, wait-time share and the
    dominant wait classes.  Returns the kernel name and table rows. *)

val print_profile_shares : unit -> unit

val all : (string * string * string * (unit -> Report.series list)) list
