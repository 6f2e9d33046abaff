(** mpicd point-to-point layer.

    The OCaml analog of the paper's [mpicd] crate: communicators and
    point-to-point operations over the simulated UCX transport, where a
    message buffer is described by one of three descriptor kinds
    (the Rust prototype's buffer trait):

    - [Bytes] — a raw contiguous byte buffer ([MPI_BYTE]);
    - [Typed] — a classic derived datatype + count + base address
      (what RSMPI / Open MPI offer today);
    - [Custom] — a buffer of a {!Custom.t} datatype (the paper's new
      API); sent as a single scatter/gather message whose first entry
      is the packed data and whose remaining entries are the type's
      zero-copy memory regions.

    Every rank of a world runs as one simulation fiber; all blocking
    calls ([send], [recv], [wait], [probe], [barrier]) park the
    calling fiber on the virtual clock. *)

module Buf = Mpicd_buf.Buf
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Datatype = Mpicd_datatype.Datatype

(** {1 Worlds} *)

type world

val create_world :
  ?config:Config.t ->
  ?topology:Mpicd_simnet.Topology.t ->
  size:int ->
  unit ->
  world
(** A simulated cluster of [size] ranks.  Without [topology] (the
    default) the network is a flat full mesh of independent wires —
    bit-identical to every historical result.  With [topology] all
    message payloads route over the topology's shared links with
    congestion-aware serialization ({!Mpicd_simnet.Topology});
    endpoints are created lazily so worlds of thousands of ranks
    don't pay an N{^2} setup cost.
    @raise Invalid_argument if the topology has fewer ranks than
    [size]. *)

val world_engine : world -> Engine.t
val world_stats : world -> Stats.t
val world_config : world -> Config.t

val world_pool : world -> Buf.Pool.t
(** The world's buffer recycler.  Custom datatype bounce buffers come
    from it and go back only after a clean completion, with or without
    a fault plan: an operation that completes with an error drops its
    buffer, which a transfer may still touch.  It dies with the
    world. *)

val transport_slabs : world -> Buf.Slabs.t
(** The transport's message slots ({!Mpicd_ucx.Ucx.slabs}).  Once every
    message sent has been received, [Buf.Slabs.carved_slots] equals
    [Buf.Slabs.free_slots]. *)

val world_size : world -> int

type comm

val run : world -> (comm -> unit) -> unit
(** SPMD convenience: spawn [f] on every rank and run the simulation to
    completion.  @raise Engine.Deadlock if ranks block forever. *)

val set_obs : world -> Mpicd_obs.Obs.t -> unit
(** Attach one observability sink to every layer of this world: MPI
    operations become ["p2p"] spans (send/isend/recv/irecv/wait/barrier,
    post to completion), transport protocol phases ["proto"] spans,
    pack/unpack callback invocations ["callback"] spans, and rank fibers
    ["fiber"] spans, with message-size/latency/queue-depth metrics in
    the sink's registry.  Pass [Mpicd_obs.Obs.null] to detach.
    Recording is passive: it never changes timing, matching, or
    [Stats]. *)

val set_faults : world -> Mpicd_simnet.Fault.t option -> unit
(** Attach (or detach) a fault-injection plan to the world's transport:
    fragments may be dropped, corrupted, duplicated or delayed, links
    may flap, and ranks may crash, all deterministically from the
    plan's seed.  The transport recovers through a reliable-delivery
    protocol (sequence numbers, CRC-32, ack/nack, retransmission with
    exponential backoff on the virtual clock); unrecoverable failures
    surface as [Timeout], [Peer_failed] or [Data_corrupted] through the
    communicator's {!errhandler}.  With [None] (the default) behaviour
    is bit-identical to a fault-free build.  See docs/FAULTS.md. *)

val faults : world -> Mpicd_simnet.Fault.t option
(** The currently attached fault plan, if any. *)

val set_fault_tap :
  world -> (Mpicd_simnet.Fault.probe -> unit) option -> unit
(** Install (or clear) the explorer's probe tap on the attached plan's
    runtime (see {!Mpicd_ucx.Ucx.set_tap}).  Call after {!set_faults};
    no-op without a plan.  Taps observe, they never mutate simulation
    state. *)

(** Test-only seeded-bug switches used by the fault-space explorer's
    mutation self-check (docs/FAULTS.md): each flag re-introduces one
    historical bug so the explorer can prove it would have found it.
    All default to [false]; leaving them off is bit-identical to not
    having them. *)
module Mutation : sig
  val revoke_oneshot : bool ref
  (** Pre-PR-8 {!comm_revoke} bug: a rank already declared failed
      claims the one-shot broadcast flag it can never honor, starving
      the survivors' revoke and hanging ranks blocked on alive peers
      that abandoned the communication pattern. *)
end

val set_unpack_shuffle : world -> seed:int option -> unit
(** Test knob: when set, unpack fragments of custom datatypes created
    with [~inorder:false] are presented out of order (the paper's
    out-of-order optimization that the [inorder] flag would inhibit). *)

(** {1 Communication monitor}

    Passive observation hooks for the {!Mpicd_check} analyzers: every
    point-to-point operation posted on a monitored world is recorded
    with enough metadata (world ranks, tag-space coordinates,
    run-length-encoded type signature) that a MUST-style checker can
    replay the MPI matching semantics after the run — pairing sends with
    receives, flagging signature mismatches and truncation, and building
    a wait-for graph over whatever is left pending at a deadlock. *)

module Monitor : sig
  type op_kind = Send | Recv

  type dt_class = Dc_bytes | Dc_typed | Dc_custom
  (** Which buffer descriptor the operation used.  Custom datatypes are
      opaque to signature matching (the paper's API deliberately hides
      the layout behind callbacks), so checkers skip them. *)

  type op = {
    id : int;  (** unique per monitor, in posting order *)
    kind : op_kind;
    rank : int;  (** world rank of the posting rank *)
    peer : int;
        (** destination (sends) / expected source (recvs) as a world
            rank; [-1] means ANY_SOURCE *)
    tag : int;  (** user tag; [-1] means ANY_TAG *)
    cid : int;  (** communicator id *)
    channel_kind : int;
        (** tag-space kind code; [0] is user traffic, nonzero codes are
            library-internal channels (collectives, object messaging) *)
    dt_class : dt_class;
    signature : (Datatype.predefined * int) list;
        (** run-length-encoded type signature of the whole message;
            empty for custom datatypes and empty messages *)
    nbytes : int;  (** wire bytes (sends) / capacity (recvs); [-1] unknown *)
    blocking : bool;
    posted_at : float;  (** virtual time of posting *)
  }

  type outcome = {
    o_op : op;
    o_peer : int;  (** actual matched peer, as a world rank *)
    o_tag : int;  (** actual tag of the matched message *)
    o_len : int;
    o_error : string option;  (** truncation / callback failure, if any *)
  }

  type t

  val create : unit -> t

  val outcomes : t -> outcome list
  (** Operations that completed at the transport level (even if never
      waited on), in posting order. *)

  val pending : t -> op list
  (** Operations posted but not completed, in posting order: the raw
      material of the wait-for graph and unmatched-at-finalize checks. *)
end

val set_monitor : world -> Monitor.t option -> unit
(** Attach a monitor; [None] detaches.  Monitoring records metadata at
    post time only and never perturbs matching, timing or data. *)

(** {1 Communicator queries} *)

val rank : comm -> int
val size : comm -> int
val world_of : comm -> world

val world_rank_of : comm -> int -> int
(** Translate a communicator rank to the underlying world rank. *)

val comm_split : comm -> color:int -> key:int -> comm
(** MPI_Comm_split (collective over the parent communicator): ranks
    with equal [color] form a new communicator, ordered by [(key, old
    rank)].  The new communicator's traffic lives in its own tag
    sub-space and cannot collide with the parent's. *)

val comm_dup : comm -> comm
(** MPI_Comm_dup: same group, fresh isolated tag space. *)

val any_source : int
val any_tag : int

(** {1 Buffers} *)

type buffer =
  | Bytes of Buf.t
  | Typed of { dt : Datatype.t; count : int; base : Buf.t }
  | Custom : { dt : 'o Custom.t; obj : 'o; count : int } -> buffer

val buffer_size : buffer -> int
(** Wire footprint of the buffer: byte length, packed datatype size, or
    packed size + region bytes for custom buffers (runs the query and
    region callbacks on a throwaway state, which is freed however they
    end).
    @raise Mpi_error [Callback_failed code] when a callback raises
    [Custom.Error code], as a send would fail. *)

(** {1 Errors and status} *)

type error = Mpicd_ucx.Ucx.error =
  | Truncated of { expected : int; capacity : int }
  | Callback_failed of int
  | Timeout of { retries : int }
      (** reliable delivery gave up after [retries] retransmissions, or
          a rendezvous handshake timed out ([retries = 0]); only occurs
          with a fault plan attached (see {!set_faults}) *)
  | Peer_failed of { peer : int }
      (** the peer (world rank) crashed mid-transfer *)
  | Data_corrupted
      (** retries exhausted on checksum failures, or end-to-end
          verification failed after the packed-path fallback *)
  | Revoked
      (** the communicator was revoked with {!comm_revoke} (ULFM
          [MPI_ERR_REVOKED]); all pending and future operations on it
          complete with this error *)

exception Mpi_error of error

type errhandler =
  | Errors_raise  (** raise {!Mpi_error} at the waiting call (default) *)
  | Errors_abort  (** raise {!Aborted}: treat any error as rank-fatal *)
  | Errors_return
      (** MPI_ERRORS_RETURN: the waiting call returns a zero-length
          status; the error is available via {!last_error} *)

exception Aborted of { rank : int; error : error }

val set_errhandler : comm -> errhandler -> unit
(** Set how operations on this communicator surface transport errors.
    The handler is shared by all ranks of the communicator and is
    inherited by communicators derived via {!comm_split}/{!comm_dup}. *)

val get_errhandler : comm -> errhandler

val last_error : comm -> error option
(** Under [Errors_return]: the most recent error swallowed by a
    degraded completion on this communicator at this rank. *)

val clear_last_error : comm -> unit

type status = { source : int; tag : int; len : int }

(** {1 Point-to-point} *)

val send : comm -> dst:int -> tag:int -> buffer -> unit
val recv : comm -> ?source:int -> ?tag:int -> buffer -> status
(** [source]/[tag] default to {!any_source}/{!any_tag}.

    As in MPI, a receive buffer must not overlap the pending send buffer
    of the same message: the transport may read a large send buffer in
    place while it writes the receive buffer. *)

type request

val isend : comm -> dst:int -> tag:int -> buffer -> request
val irecv : comm -> ?source:int -> ?tag:int -> buffer -> request
val wait : request -> status
val waitall : request list -> status list

val test : request -> status option
(** Non-blocking completion check (MPI_Test).  Returns the status once
    the operation completed; repeated calls after completion keep
    returning it. *)

val waitany : request list -> int * status
(** Block until some request completes; returns its index
    (MPI_Waitany).  The caller parks once on every request, and the
    first to complete in event order wins.  As in MPI, the remaining
    requests stay outstanding, to be completed with {!wait}/{!test} or
    left pending: nothing is left blocked on them.
    @raise Invalid_argument on an empty list. *)

val sendrecv :
  comm ->
  dst:int ->
  send_tag:int ->
  buffer ->
  ?source:int ->
  ?recv_tag:int ->
  buffer ->
  status
(** Combined send + receive without deadlock (MPI_Sendrecv); returns
    the receive status. *)

(** {1 Explicit packing (MPI_Pack / MPI_Unpack)}

    The classic byte-stream escape hatch the paper's benchmarks call
    "mpi-pack-ddt": serialize typed data into a caller-provided buffer
    with an explicit position cursor, then send it as [Bytes]. *)

val pack :
  comm ->
  Datatype.t ->
  count:int ->
  src:Buf.t ->
  dst:Buf.t ->
  position:int ->
  int
(** [pack comm dt ~count ~src ~dst ~position] appends the packed bytes
    at [position] in [dst] and returns the new position.  Charges the
    datatype engine's costs to the calling rank's clock. *)

val unpack :
  comm ->
  Datatype.t ->
  count:int ->
  src:Buf.t ->
  position:int ->
  dst:Buf.t ->
  int
(** Inverse of {!pack}: consumes packed bytes from [src] at [position],
    scatters into the typed layout [dst], returns the new position. *)

val pack_size : Datatype.t -> count:int -> int
(** Upper bound on the packed size (MPI_Pack_size). *)

(** {1 Probing} *)

val iprobe : comm -> ?source:int -> ?tag:int -> unit -> status option
val probe : comm -> ?source:int -> ?tag:int -> unit -> status

type message

val mprobe : comm -> ?source:int -> ?tag:int -> unit -> status * message
val mrecv : comm -> message -> buffer -> status

(** {1 Simple collectives}

    A minimal barrier lives here because the benchmark harness needs
    it; richer collectives (including over custom datatypes) are in
    {!Mpicd_collectives}. *)

val barrier : comm -> unit
(** Failure-aware: if a member of the communicator has been declared
    failed (or the communicator was revoked), every rank's call
    terminates — with [Peer_failed]/[Revoked] through the error handler
    — instead of hanging. *)

(** {1 Process-failure resilience (ULFM-style)}

    A miniature of the MPI User-Level Failure Mitigation proposal; see
    docs/RESILIENCE.md.  Failures are declared by the transport's
    heartbeat detector, or piggybacked on traffic when the reliable
    protocol exhausts its retries against a crashed peer; a declared
    failure cancels every pending operation it makes undeliverable,
    so within a bounded amount of virtual time all victims observe
    [Peer_failed] rather than blocking forever.  Any-source receives
    with no failed explicit peer are left pending, as in ULFM. *)

val failed_ranks : comm -> int list
(** Members of this communicator declared failed so far, as comm ranks,
    ascending. *)

val comm_revoke : comm -> unit
(** ULFM [MPI_Comm_revoke]: immediately interrupt this rank's pending
    operations on the communicator with [Revoked] and propagate the
    revocation to every other member (one link latency later).  The
    propagation is reliable and idempotent; future operations on the
    communicator fail fast with [Revoked] at every rank that has seen
    it.  Typically called after an operation raised [Peer_failed], to
    flush peers out of a half-completed communication pattern before
    {!comm_shrink}. *)

val comm_revoked : comm -> bool
(** Has this rank seen a revocation of the communicator? *)

val comm_shrink : comm -> comm
(** ULFM [MPI_Comm_shrink]: collectively build a working communicator
    from the surviving members.  Participants agree fault-tolerantly on
    the union of observed failures; the survivor set, its renumbering
    (ordered by old comm rank) and the fresh communicator id are fixed
    once at agreement completion, so every caller gets a consistent
    view.  The death of a participant mid-shrink cannot block the
    others.  Raises [Mpi_error (Peer_failed _)] at a caller that was
    itself presumed dead.  The new communicator inherits the parent's
    error handler. *)

val comm_agree : comm -> flags:int -> int
(** ULFM [MPI_Comm_agree]: fault-tolerant agreement on the bitwise AND
    of every live member's [flags].  The result is uniform across
    survivors even if members fail mid-agreement.  If a member failed
    without contributing, the error handler is applied with
    [Peer_failed] at {e every} caller — unless every contributor had
    acknowledged that failure with {!comm_failure_ack} before calling.
    The error verdict is itself agreed (each contribution carries the
    caller's acknowledged set), so all callers reach the same
    conclusion; the returned value is still the agreed AND. *)

val comm_failure_ack : comm -> unit
(** Acknowledge (at this rank) every failure known so far on this
    communicator (ULFM [MPI_Comm_failure_ack]); see {!comm_agree}. *)

val comm_get_acked : comm -> int list
(** Comm ranks whose failure this rank has acknowledged
    (ULFM [MPI_Comm_failure_get_acked]). *)

(** {1 Internals shared with sibling libraries}

    Tag-space plumbing used by the collectives and object-messaging
    layers so their traffic cannot collide with user point-to-point
    messages (the multi-channel locking problem the paper discusses). *)

module Internal : sig
  type kind = User | Internal | Objmsg | Objmsg_aux | Restart
  (** [Restart] is the checkpoint/restart control channel (epoch
      markers and logged-envelope traffic from the lib/restart
      runtime).  Unlike [Internal], errors on this kind go through the
      communicator's error handler like user traffic — the recovery
      orchestrator observes failures as ordinary [Mpi_error]s. *)

  val send_k : comm -> kind -> dst:int -> tag:int -> buffer -> unit
  val recv_k : comm -> kind -> ?source:int -> ?tag:int -> buffer -> status
  val isend_k : comm -> kind -> dst:int -> tag:int -> buffer -> request
  val irecv_k : comm -> kind -> ?source:int -> ?tag:int -> buffer -> request
  val mprobe_k : comm -> kind -> ?source:int -> ?tag:int -> unit -> status * message
  val mrecv_k : comm -> kind -> message -> buffer -> status

  val fresh_seq : comm -> int
  (** Per-communicator operation sequence number.  All ranks execute
      collectives in the same order (SPMD), so equal sequence numbers
      identify the same collective across ranks; used to build
      collision-free internal tag spaces. *)

  val empty : buffer
  (** A shared zero-byte buffer, for messages that carry no payload
      (barrier rounds). *)

  val staging : comm -> int -> Buf.t
  (** [staging c n] lends a zeroed [n]-byte buffer for one collective
      call: the one this rank last handed back with [keep_staging] if
      it has [n] bytes, else a fresh one carved from the world's
      {!Buf.Slabs} (which takes back a kept buffer of another length). *)

  val keep_staging : comm -> Buf.t -> unit
  (** Hand a buffer that [staging] lent back for the rank's next call.
      Only a call that completed cleanly may: a failed one can leave a
      transfer that still writes into its buffer. *)

  val registered_ops : comm -> int
  (** Entries, pending or completed but not yet pruned, in this rank's
      cancellation registry (a test accessor).  After any post it is at
      most [max 8 (2 * p)], for the [p] entries that were still pending
      at the last prune. *)

  (** Failure plumbing for the collectives layer.  Operations posted
      through this module's [_k] functions on the [Internal] kind raise
      [Mpi_error] directly on error (bypassing the communicator's error
      handler): the collective must observe the failure itself, poison
      the operation for its peers, and then apply the handler once at
      the collective level. *)

  val collective_ready : comm -> error option
  (** The error dooming a collective on this communicator before it
      starts (seen revocation, earlier poisoned collective, or declared-
      failed member), if any. *)

  val poison_collective : comm -> error -> unit
  (** Mark the communicator broken for collectives and cancel peers'
      pending internal-channel operations on it (one link latency
      later), so no rank keeps waiting for a rank that already gave
      up. *)

  val collective_error : comm -> error -> unit
  (** Apply the communicator's error handler to a collective-level
      error: raise {!Mpi_error}, raise {!Aborted}, or stash it for
      {!last_error} and return. *)
end
