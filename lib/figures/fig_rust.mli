(** Figures 1–7: the Rust-type benchmarks of the paper's §V-A. *)

module Report = Mpicd_harness.Report

val fig1 : unit -> Report.series list
(** Double-vec latency vs subvector size at a fixed 64 KiB message. *)

val fig5 : unit -> Report.series list
(** struct-simple latency (the gapped struct that hurts Open MPI). *)

val fig6 : unit -> Report.series list
(** struct-simple-no-gap latency. *)

val fig7 : unit -> Report.series list
(** struct-simple bandwidth (the eager→rendezvous dip). *)

val all : (string * string * string * (unit -> Report.series list)) list
(** [(key, title, ylabel, generator)] for each figure. *)
