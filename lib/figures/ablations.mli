(** Ablation benchmarks: each sweeps one cost-model parameter or
    algorithm choice and shows the corresponding paper effect moving
    with it (see EXPERIMENTS.md, A1–A7). *)

module Report = Mpicd_harness.Report

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

val print_profile_shares : unit -> unit

val all : (string * string * string * (unit -> Report.series list)) list
