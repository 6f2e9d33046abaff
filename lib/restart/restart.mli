(** Coordinated checkpoint/restart with sender-based message logging
    and a ULFM-composing recovery orchestrator.

    The runtime snapshots registered application buffers through their
    committed datatypes' compiled pack plans ({!Snapshot}), coordinates
    epoch cuts with Chandy–Lamport-style markers flushed through the
    reliable-delivery transport on the dedicated [Restart] channel
    kind, logs every application envelope on the sender side so
    re-execution is checkable for determinism, and recovers from
    process failure either {e in place} (ack / revoke / shrink / agree
    on the latest globally-complete epoch / restore / resume — the
    survivor path) or by {e respawning} a fresh simulated world that
    restores from the host-persistent {!Store} (the
    replacement-job path, which converges byte-identically to the
    fault-free run).  See docs/RESILIENCE.md.

    {2 Epoch protocol}

    Epochs number the committed cuts: epoch 0 is the initial state,
    committed right after {!register}ing buffers; epoch [e] is
    committed by the [e]-th call to {!commit} after the application
    quiesced its interval-[e] communication.  A {!commit}:

    + exchanges an epoch marker with every peer on the [Restart]
      channel (per-channel FIFO makes the marker a cut: every pre-cut
      envelope is already at the receiver when its marker arrives);
    + plan-packs each registered buffer into a {!Snapshot} and writes
      it to the store under [<job>/ckpt/e<epoch>/r<world-rank>/<name>];
    + runs the failure-aware barrier;
    + writes the rank's completion marker.  An epoch is {e globally
      complete} when every member's completion marker is present;
      because the marker is written unconditionally right after the
      barrier returns, the minimum locally-committed epoch across
      survivors is always globally complete.

    {2 Message log}

    {!send} assigns a per-destination sequence number, packs typed
    payloads through the same plan engine as the wire, and persists
    [(tag, epoch, seq, payload)] to the store before sending
    [(incarnation, epoch, seq, payload)] on the wire.  When a send is
    re-executed after recovery at full group size, the logged entry
    must match byte-for-byte — {!Replay_diverged} otherwise.  {!recv}
    suppresses duplicate and stale envelopes by sequence number (the
    per-peer cursors are themselves checkpointed, riding in a hidden
    registered buffer, so restores rewind them consistently). *)

module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype
module Mpi = Mpicd.Mpi

type t

exception Replay_diverged of string
(** Re-executed communication failed the determinism check against the
    sender-based message log (or a sequence gap was observed). *)

val create :
  ?obs:Mpicd_obs.Obs.t -> store:Store.t -> job:string -> Mpi.comm -> t
(** Per-rank runtime.  [comm] must be the job's full initial
    communicator; [job] namespaces this job's snapshots and logs inside
    the store.  Spans and instants are recorded under the ["ckpt"]
    category on the given sink. *)

val comm : t -> Mpi.comm
(** The current communicator: the initial one until a recovery
    shrinks it.  Applications must route all communication for a step
    through this (or through {!send}/{!recv}). *)

val epoch : t -> int
(** Last locally-committed epoch; [-1] before the first {!commit}. *)

val incarnation : t -> int
val store : t -> Store.t

val register : t -> name:string -> dt:Dt.t -> count:int -> Buf.t -> unit
(** Register an application buffer for checkpointing: [count] elements
    of [dt] laid out in the (live, aliased) buffer.  Registering an
    existing [name] replaces its entry.  Restores decode {e into} the
    registered buffer. *)

val registered : t -> (string * Buf.t) list
(** Registered buffers in registration order (excluding the runtime's
    hidden sequence-cursor buffer). *)

(** {1 Logged point-to-point} *)

val send : t -> dst:int -> tag:int -> Mpi.buffer -> unit
(** Send on the [Restart] channel with an [(incarnation, epoch, seq)]
    header, logging the envelope.  [dst] is a rank of {!comm}; [tag]
    must be below [0x3E_0000_0000] (the marker sub-space).  [Bytes] and
    [Typed] buffers only. *)

val recv : t -> source:int -> tag:int -> Mpi.buffer -> Mpi.status
(** Matching receive: unwraps the header, drops duplicate/stale
    envelopes ([seq] below the expected cursor — counted in
    [Stats.Dups_suppressed]) and returns the payload's status.
    @raise Replay_diverged on a sequence gap. *)

(** {1 Epochs} *)

val commit : t -> unit
(** Commit epoch [epoch t + 1] (collective).  Failures surface as
    [Mpi_error] through the communicator's error handler; the epoch
    counter only advances on success. *)

val restore_to : t -> epoch:int -> unit
(** Plan-decode every registered buffer from this rank's epoch-[epoch]
    snapshots, failing closed ({!Snapshot.Corrupt_snapshot}) on any
    damaged or missing image.  Rewinds {!epoch} and the message-log
    cursors. *)

val latest_complete_epoch : Store.t -> job:string -> nranks:int -> int
(** Highest epoch whose completion markers are present for all
    [nranks] world ranks; [-1] if none. *)

val prune_log : t -> upto:int -> unit
(** Drop this rank's logged envelopes for epochs [<= upto] (they can
    never be replayed once [upto] is globally complete). *)

(** {1 Recovery orchestration} *)

val recover : t -> int
(** In-world recovery round, composing the ULFM primitives:
    acknowledge failures, revoke the current communicator (flushing
    peers out of half-completed patterns), shrink to the survivors,
    agree on the latest globally-complete epoch (bitmask-encoded
    through the AND-agreement), restore the registered buffers from it
    and bump the incarnation.  Returns the restored epoch, [-1] when
    no epoch was complete (caller must re-initialize).  May itself
    raise [Mpi_error] if members keep failing; call again. *)

type app = {
  epochs : int;  (** number of computation intervals to run *)
  init : t -> unit;
      (** register buffers with their initial values; re-invoked when
          recovery lands before epoch 0 *)
  step : t -> epoch:int -> unit;
      (** compute interval [epoch] ([1..epochs]), quiescing all
          communication before returning; must route traffic through
          {!comm}/{!send}/{!recv} *)
}

val run_protected : ?max_recoveries:int -> t -> app -> unit
(** Run the app under the in-world orchestrator: commit epoch 0 after
    [init], then step/commit each interval, running {!recover} rounds
    on [Mpi_error] and resuming from the restored epoch instead of
    from zero.  Gives up (re-raising) after [max_recoveries]
    (default 8) recovery rounds. *)

type job_report = {
  worlds_used : int;  (** simulated worlds (original + respawns) *)
  completed : bool;  (** all ranks finished all epochs *)
  start_epochs : int list;
      (** restore epoch per world, oldest first; [-1] = fresh start *)
}

val run_job :
  ?config:Mpicd_simnet.Config.t ->
  ?plan:Mpicd_simnet.Fault.t ->
  ?obs:Mpicd_obs.Obs.t ->
  ?max_worlds:int ->
  store:Store.t ->
  job:string ->
  size:int ->
  app ->
  job_report
(** Cross-world orchestrator (respawn-as-simulated-replacement): run
    the app in a fresh world; if any rank fails to finish (crash plan,
    retry exhaustion, deadlock), spawn a replacement world whose ranks
    restore from the latest globally-complete epoch in the
    host-persistent [store], with already-fired crashes stripped from
    the plan, until the job completes or [max_worlds] (default 8) is
    exhausted.  Because re-execution from the restored epoch is
    deterministic (enforced by the message-log byte-identity check),
    the completed job's final state is byte-identical to a fault-free
    run.  A crash plan must carry a heartbeat period ([hb=]) so blocked
    survivors observe failures in bounded time.
    @raise Invalid_argument on a crash plan without heartbeats. *)
