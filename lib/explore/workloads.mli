(** Reference workloads with built-in oracles for the fault-space
    explorer.

    A workload is a deterministic SPMD program over the simulator plus
    an oracle that judges one execution under a fault plan.  The
    explorer treats workloads as black boxes: it runs [wl_run] with
    candidate plans and asks only for the canonical render (to
    fingerprint and replay-compare executions byte-for-byte) and the
    oracle violations (to decide counterexample-hood).

    Shared oracle rules, applied by every workload:
    - a {e hang} (engine deadlock, or any rank that never records an
      outcome) is always a violation;
    - {e damaged} payload data is always a violation — fault recovery
      must never silently deliver wrong bytes;
    - an {e error} outcome is excused only when the plan schedules a
      cause that can legitimately kill or evict a rank: a crash, a
      partition, or a straggler past the heartbeat detector's
      false-positive threshold.  Drops and corruptions alone must be
      absorbed by the reliable protocol. *)

type result = {
  res_render : string;
      (** canonical render of the execution: one ["rankN: <outcome>"]
          line per rank, a ["hang: yes/no"] line, and a line of the
          discriminating {!Mpicd_simnet.Stats} counters.  Replaying the
          same plan must reproduce this byte-identically. *)
  res_failures : string list;
      (** oracle violations, each ["category: detail"]; empty means the
          execution satisfied the workload's contract *)
  res_stats : Mpicd_simnet.Stats.t;  (** the world's counters after the run *)
  res_scans : int;
      (** host work: buckets the engine's event queue stepped past
          ({!Mpicd_simnet.Engine.scans}) *)
}

type t = {
  wl_name : string;
  wl_descr : string;  (** one-line description for [--list] output *)
  wl_size : int;  (** world size the workload runs at *)
  wl_config : Mpicd_simnet.Config.t;
  wl_base : Mpicd_simnet.Fault.t;
      (** base fault plan (retry budget, heartbeat period) the explorer
          extends with scheduled faults; running [wl_run wl_base] is the
          fault-free reference run *)
  wl_run : ?tap:(Mpicd_simnet.Fault.probe -> unit) -> Mpicd_simnet.Fault.t -> result;
      (** execute under a plan; [tap] observes every first-attempt
          fragment send and ack (see {!Mpicd_ucx.Ucx.set_tap}), which is
          how the explorer records injection points *)
}

val revoke_rescue : t
(** 4-rank dependency chain in the ULFM revoke-rescue pattern: ranks 0
    and 1 block on alive peers and can only be released by the
    comm_revoke broadcast of whichever rank first observes a failure.
    Sensitive to revocation-propagation bugs. *)

val allreduce : t
(** Resilient float64 sum ({!Mpicd_collectives.Collectives.resilient_allreduce_f64}):
    commits must be uniform across surviving ranks, exact when the run
    is fault-free, and every rank without a scheduled cause must
    commit. *)

val all : t list
val find : string -> t option

val has_cause : Mpicd_simnet.Config.t -> Mpicd_simnet.Fault.t -> bool
(** Does the plan schedule anything that can legitimately kill or evict
    a rank (crash, partition, or declared straggler)?  Exposed so the
    explorer can report why an error outcome was — or wasn't —
    excused. *)

val error_name : Mpicd.Mpi.error -> string
(** Stable short name of an error, as used in outcome renders. *)
