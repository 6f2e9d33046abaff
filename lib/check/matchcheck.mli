(** Communication matching and deadlock analysis.

    Replays MPI matching semantics over the operations recorded by
    {!Mpicd.Mpi.Monitor} (MUST-style): sends and receives are paired per
    channel (source, destination, communicator, tag) in the order the
    simulator's non-overtaking rule guarantees, then checked for

    - type-signature mismatches between matched pairs,
    - truncation and callback failures,
    - operations left unmatched at finalize, and
    - wait-for cycles over whatever is pending when the simulation
      deadlocks.

    Rule catalogue: docs/CHECKS.md. *)

val analyzer : string

val analyze :
  subject:string ->
  world_size:int ->
  deadlocked:bool ->
  Mpicd.Mpi.Monitor.t ->
  Finding.t list
(** Post-mortem analysis of a monitored run.  [deadlocked] states
    whether the run ended in {!Mpicd_simnet.Engine.Deadlock}. *)

type result = {
  findings : Finding.t list;
  deadlocked : bool;
  counts : (string * int) list;
      (** the run's [messages_sent], [eager_messages] and
          [rndv_messages], by {!Mpicd_simnet.Stats.name} *)
}

val run :
  subject:string ->
  size:int ->
  ?config:Mpicd_simnet.Config.t ->
  (Mpicd.Mpi.comm -> unit) ->
  result
(** Convenience driver: create a world of [size] ranks, attach a monitor,
    run the SPMD program, and analyze.  A deadlock is
    caught and analyzed rather than propagated; any other exception
    escaping a rank is reported as a [MATCH-ABORTED] finding. *)
