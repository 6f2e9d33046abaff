(** Benchmark driver: OSU-style ping-pong measurements on the simulated
    two-node cluster.

    Each measurement builds a fresh deterministic world, runs [warmup]
    unmeasured rounds, then [reps] measured rounds, and reports the
    average one-way latency (half the round-trip) on the virtual clock
    together with the derived bandwidth — the methodology of the
    paper's §V benchmarks. *)

module Buf = Mpicd_buf.Buf
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Mpi = Mpicd.Mpi

type impl = {
  send : Mpi.comm -> dst:int -> tag:int -> unit;
  recv : Mpi.comm -> source:int -> tag:int -> unit;
}
(** One transfer method: how to send one message and how to receive
    one.  Both run inside rank fibers and may block. *)

type result = {
  bytes : int;  (** payload bytes per one-way transfer *)
  latency_us : float;  (** average one-way latency, microseconds *)
  bandwidth_mib_s : float;  (** bytes / latency, MiB/s *)
  stats : Stats.t;  (** counters accumulated over the measured rounds *)
}

val pingpong :
  ?config:Config.t ->
  ?warmup:int ->
  ?reps:int ->
  ?obs:Mpicd_obs.Obs.t ->
  ?faults:Mpicd_simnet.Fault.t ->
  bytes:int ->
  (unit -> impl) ->
  result
(** [pingpong ~bytes make] measures [make ()] (a fresh impl with its own
    buffers per measurement).  Defaults: warmup 2, reps 10.  [obs], if
    given, is attached to the measurement world (see [Mpi.set_obs]);
    attaching it never changes the measured result.  [faults], if given,
    attaches a fault-injection plan (see [Mpi.set_faults]): the measured
    latency then includes retransmissions and recovery, and the result's
    [stats] carry the reliability counters. *)

val pingpong_profiled :
  ?config:Config.t ->
  ?warmup:int ->
  ?reps:int ->
  ?faults:Mpicd_simnet.Fault.t ->
  bytes:int ->
  (unit -> impl) ->
  result * Mpicd_obs.Profile.t
(** [pingpong] with a fresh observability sink attached and the trace
    run through {!Mpicd_obs.Profile.analyze}: the measurement result
    (identical to the unprofiled run — attaching the sink never changes
    the virtual clock) plus the wait-state / critical-path profile of
    the whole run, warmup rounds included. *)

(** {1 Large-communicator workloads}

    Scale runs exercise the engine and (optionally) a shared-link
    topology with thousands of rank fibers; the paper's two-node
    ping-pong methodology doesn't stress either. *)

type scale_result = {
  ranks : int;
  topology : string;  (** ["flat"], ["switch"], ["fattree"], ["dragonfly"] *)
  sim_time_ns : float;  (** virtual time at completion *)
  events : int;  (** engine events scheduled over the whole run *)
  pooled : int;  (** of those, served from the event-node pool *)
  max_live : int;  (** peak simultaneously queued events *)
  congestion_events : int;  (** sends that waited for a busy link *)
  congestion_wait_ns : float;  (** total virtual time spent so waiting *)
  checksum : float;  (** rank 0's [data.(0)] after the last allreduce *)
}

val scale_allreduce :
  ?config:Config.t ->
  ?topology:Mpicd_simnet.Topology.t ->
  ?iters:int ->
  ?elems:int ->
  ranks:int ->
  unit ->
  scale_result
(** Build a fresh [ranks]-rank world (over [topology] if given), run
    [iters] (default 1) binomial-tree [allreduce_f64] sums of [elems]
    (default 8) float64s per rank plus a closing barrier, and report
    virtual time together with the engine/congestion counters.
    Deterministic: same arguments, same result — bench drivers measure
    host wall-clock around this call. *)

(** {1 Cost-charging helpers for benchmark implementations}

    Benchmark code that does its own packing (the paper's
    [manual-pack]) uses these so its CPU work is charged to the virtual
    clock like everything else. *)

val charged_alloc : Mpi.comm -> int -> Buf.t
(** Allocate a zero-filled buffer, recording and charging allocation
    cost.  The bytes come from the world's pool ({!Mpi.world_pool}). *)

val charged_free : Mpi.comm -> Buf.t -> unit
(** Record the free and give the buffer back to the world's pool: the
    caller must not touch it afterwards. *)

val charge_copy : Mpi.comm -> int -> unit
(** Charge a [bytes]-sized CPU copy (call after performing it). *)

val charge_pieces : Mpi.comm -> int -> unit
(** Charge the per-piece cost of a pack loop that touched [n]
    contiguous blocks. *)

val charge_ddt_blocks : Mpi.comm -> int -> unit
(** Charge the classic datatype engine's per-block cost for [n] blocks
    (used by the explicit MPI_Pack-style benchmark method). *)

val charge_ns : Mpi.comm -> float -> unit
(** Charge an arbitrary CPU duration. *)
