(** Figures 8–9: mpi4py-style Python object pingpong (paper §V-B). *)

module Report = Mpicd_harness.Report

val all : (string * string * string * (unit -> Report.series list)) list
