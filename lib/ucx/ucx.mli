(** UCP-like tag-matching transport over the simulated interconnect.

    This layer plays the role UCX/UCP plays under the paper's prototype:
    it exposes tagged sends and receives with three datatype classes —

    - {e contiguous} ([Sd_contig]/[Rd_contig], cf. [UCP_DATATYPE_CONTIG]);
    - {e iovec} ([Sd_regions]/[Rd_regions], cf. [UCP_DATATYPE_IOV]): a
      scatter/gather list of memory regions transferred zero-copy,
      where each run of adjacent regions moves as one span;
    - {e generic} ([Sd_generic]/[Rd_generic], cf. [UCP_DATATYPE_GENERIC]):
      the transport drives application callbacks to pack/unpack the data
      fragment by fragment, exactly the mechanism the paper's custom
      datatype API plugs into.

    Protocols, following UCX behaviour on the paper's testbed:
    - contiguous/generic messages up to [Config.link.eager_limit] use the
      {e eager} protocol: the payload is copied through bounce buffers on
      both sides and an unexpected arrival allocates receiver memory;
    - larger contiguous/generic messages use {e rendezvous}: an RTS
      envelope is matched first, then data moves zero-copy (contiguous)
      or through a pipelined pack/unpack (generic);
    - iovec messages always use a single zero-copy rendezvous-style
      transfer with a per-entry gather cost and {e no} eager/rendezvous
      switchover — this is why the paper's custom path shows no dip at
      the 2^15-byte protocol boundary (Fig. 7) while paying a fixed
      handshake at small sizes (Figs. 1, 3).

    Messages between a given pair of workers are delivered in send order
    (MPI non-overtaking holds per channel). *)

module Buf = Mpicd_buf.Buf
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats

exception Callback_error of int
(** Pack/unpack callbacks signal failure by raising this; the error code
    is propagated through the request status (the paper's
    return-value-based error handling). *)

type context

val create_context :
  engine:Engine.t -> config:Config.t -> stats:Stats.t -> context

val slabs : context -> Buf.Slabs.t
(** The slots that hold a message's bytes, the same with or without a
    fault plan: an eager contiguous send's snapshot, a generic send's
    pack (one slot, its pack callbacks writing consecutive windows),
    and an iovec rendezvous's gather where one stream is needed (under
    a plan, or into a generic receiver).  Contiguous and iovec send
    buffers are read in place and never enter it.  Each slot goes back
    exactly once: when its message lands (or a failing unpack callback
    refuses it), is truncated or fails to transfer.  Once a world is
    quiet, [Buf.Slabs.free_slots] equals [Buf.Slabs.carved_slots]
    unless a message was never received.  Exposed so tests can count;
    take nothing from it. *)

type worker

val create_worker : context -> worker

type endpoint

val connect : worker -> worker -> endpoint
(** [connect src dst] — an endpoint for sending from [src] to [dst]. *)

(** {1 Datatypes} *)

type send_generic = {
  sg_packed_size : int;  (** total packed bytes (query callback result) *)
  sg_pack : offset:int -> dst:Buf.t -> int;
      (** pack bytes at virtual offset [offset] of the packed stream into
          [dst]; returns the number of bytes produced (may be short only
          at end of stream). *)
  sg_finish : unit -> unit;  (** called once the send payload is built *)
  sg_overhead_ns : float;
      (** extra CPU time the pack callbacks consume beyond the byte-rate
          cost (e.g. the datatype engine's per-block overhead) *)
}

type recv_generic = {
  rg_capacity : int;  (** maximum acceptable packed bytes *)
  rg_unpack : offset:int -> src:Buf.t -> int;
      (** scatter the fragment [src] (virtual offset [offset] of the
          packed stream) into place; returns the number of bytes
          consumed.  Every delivered fragment lies wholly inside the
          stream, so the transport raises {!Callback_error} if the
          return differs from [length src]. *)
  rg_finish : unit -> unit;
      (** called exactly once per matched receive, whatever its outcome:
          after the last fragment is unpacked, or when the receive ends
          without data (truncation, a failed callback or transfer, a
          poison nack, cancellation) *)
  rg_overhead_ns : float;  (** extra receiver CPU time (cf. [sg_overhead_ns]) *)
}

type send_dt =
  | Sd_contig of Buf.t
  | Sd_iov of Buf.t list
      (** [Sd_regions (Buf.Iov.of_list l)], converted once when posted *)
  | Sd_regions of Buf.Iov.t
  | Sd_generic of send_generic

type recv_dt =
  | Rd_contig of Buf.t
  | Rd_iov of Buf.t list
      (** [Rd_regions (Buf.Iov.of_list l)], converted once when posted *)
  | Rd_regions of Buf.Iov.t
  | Rd_generic of recv_generic

(** {1 Requests} *)

type error =
  | Truncated of { expected : int; capacity : int }
  | Callback_failed of int
  | Timeout of { retries : int }
      (** the reliable-delivery protocol gave up after [retries]
          retransmissions (or a rendezvous handshake timed out, with
          [retries = 0]) *)
  | Peer_failed of { peer : int }
      (** the destination (or source) worker crashed mid-transfer *)
  | Data_corrupted
      (** retries exhausted with checksum failures, or end-to-end
          verification failed after the packed-path fallback *)
  | Revoked
      (** the operation's communicator was revoked (ULFM
          [MPI_ERR_REVOKED]); set by the upper layer through
          {!try_cancel}/{!completed_request} *)

type status = { len : int; tag : int; error : error option }
(** Tags and masks inside the transport are native ints: the MPI tag
    layout uses bits 0-62. *)

type owner = ..
(** What the upper layer keeps per operation, in the request itself. *)

type owner += No_owner

(** One record per operation: its completion cell, a receive's
    posted-queue entry, and the upper layer's owner slot and list
    link ({!set_owner}, {!set_link}). *)
type request = private {
  mutable r_status : status;
  mutable r_waiter : status Engine.waiter;
  mutable r_seq : int;
      (** the context-wide sequence number ("mseq") of the message it
          sent or received, or [-1]; the transport's trace spans carry
          it as an ["mseq"] arg, joining a message's send and receive
          spans.  Never affects matching or timing. *)
  r_tag : int;  (** a send's tag; a receive's match filter *)
  r_mask : int;
  r_peer : int;
      (** a send's destination worker; for a receive, the source the
          poster restricted it to, or [-1] (never read here) *)
  r_dt : recv_dt;
  mutable r_next : request;
  mutable r_owner : owner;
  mutable r_link : request;
}

val no_request : request
(** A never-posted request that ends every list of requests. *)

val set_owner : request -> owner -> unit
val set_link : request -> request -> unit

val wait : request -> status
(** Block the calling fiber until the request completes.  Several
    fibers may wait on one request; they wake in the order they
    waited. *)

val wait_any : request list -> int * status
(** Block the calling fiber until one of the requests, none of them
    complete yet, completes; return its index and status.  The first to
    complete wins; the others stay pending.
    @raise Invalid_argument if the list is empty. *)

val is_completed : request -> bool
val peek : request -> status option

(** {1 Tagged communication} *)

val tag_send : endpoint -> tag:int64 -> send_dt -> request
(** Post a send.  Must be called from a fiber (posting charges CPU
    time).  The request completes when the payload has been taken out of
    the source buffers (eager) or when the transfer finishes
    (rendezvous/iov).

    As in MPI, a receive buffer must not overlap the pending send buffer
    of the same message: a fault-free rendezvous reads contiguous and
    iovec send buffers in place, with no intermediate copy. *)

val tag_send_from : worker -> dst:worker -> tag:int -> send_dt -> request
(** [tag_send_from src ~dst] is [tag_send (connect src dst)] without
    the endpoint record, with a native-int tag: the MPI layer's
    per-message entry point. *)

val tag_recv : worker -> tag:int64 -> mask:int64 -> recv_dt -> request
(** Post a receive matching envelopes with [(env_tag land mask) = (tag
    land mask)].  Posted receives match in post order; unexpected
    messages match in arrival order. *)

val post_recv : worker -> tag:int -> mask:int -> peer:int -> recv_dt -> request
(** {!tag_recv} with native-int tags, recording [peer] in the request:
    the MPI layer's entry point. *)

(** {1 Probing} *)

type probe_info = { p_tag : int; p_len : int; p_src_worker : int }

val tag_probe : worker -> tag:int -> mask:int -> probe_info option
(** Non-blocking probe of the unexpected queue (does not dequeue). *)

val tag_probe_wait : worker -> tag:int -> mask:int -> probe_info
(** Blocking probe: waits until a matching envelope arrives. *)

type message
(** A matched-and-dequeued envelope (MPI_Mprobe semantics). *)

val tag_mprobe_wait : worker -> tag:int -> mask:int -> probe_info * message
(** Blocking matched probe: dequeues the oldest matching envelope,
    waiting for one to arrive if none is queued.  An arrival wakes every
    blocked probe it matches, in blocking order, then the oldest
    blocked mprobe it matches. *)

val msg_recv : worker -> message -> recv_dt -> request
(** Receive a previously mprobed message. *)

(** {1 Observability} *)

val set_obs : context -> Mpicd_obs.Obs.t -> unit
(** Attach a structured span/metrics sink.  Protocol phases (pack, wire,
    rts, rendezvous handshake, unpack) become ["proto"] spans on the
    worker's track, individual pack/unpack callback invocations become
    ["callback"] spans tiled across their phase, and message-size /
    latency / queue-depth metrics are recorded in the sink's registry.
    Pass [Mpicd_obs.Obs.null] to detach; recording never perturbs the
    simulation. *)

(** {1 Fault injection} *)

val set_faults : context -> Mpicd_simnet.Fault.t option -> unit
(** Attach (or detach, with [None]) a fault plan.  With a plan attached
    every payload fragment — eager data, rendezvous data, and the RTS
    control message — traverses a reliable-delivery protocol: fragments
    carry sequence numbers and CRC-32 checksums, the receiver acks/nacks
    them, and the sender retransmits with exponential backoff on the
    virtual clock, so recovery costs simulated time and shows up in
    {!Stats} and the attached {!Mpicd_obs.Obs} sink.  Retry exhaustion
    surfaces [Timeout], [Peer_failed] or [Data_corrupted] through the
    request status on {e both} sides of the transfer.  The iovec path
    models scatter/gather DMA whose corruption is only detected
    end-to-end: a dirty iov transfer falls back — once — to the
    CRC-protected packed path before any error is surfaced.

    With no plan attached ([None], the default) every code path is the
    pre-fault one: timing, statistics and traces are bit-identical to a
    build without fault injection.  See docs/FAULTS.md. *)

val faults : context -> Mpicd_simnet.Fault.t option
(** The currently attached fault plan, if any. *)

val set_tap : context -> (Mpicd_simnet.Fault.probe -> unit) option -> unit
(** Install (or clear) a probe tap on the attached plan's runtime: the
    transport reports every first-attempt fragment send and every
    completing ack through it, which is how the explorer enumerates the
    injection points of a reference run.  Call {e after} {!set_faults}
    (re-attaching a plan replaces the runtime and drops the tap); no-op
    without a plan.  Taps observe — they must not mutate simulation
    state. *)

val retx_backoff_ns :
  Mpicd_simnet.Config.t -> Mpicd_simnet.Fault.t -> attempt:int -> float
(** The deterministic backoff sleep before retransmission
    [attempt + 1]: the plan's exponential schedule
    [rto_ns * backoff^attempt] clamped at
    [Config.retx_backoff_max_ns].  This is exactly what the reliable
    path sleeps when [Config.retx_jitter] is off (jittered sleeps are
    clamped at the same ceiling), exposed pure so tests can pin the
    clamp boundary. *)

(** {1 Process-failure detection (ULFM building blocks)}

    A heartbeat liveness detector runs whenever the attached plan
    schedules crashes and has a nonzero [hb_period_ns]: each crashed
    rank is declared failed at the first heartbeat boundary after its
    crash time plus two link latencies, so detection latency is bounded
    by [hb_period_ns + 2 * latency_ns] of virtual time.  Failure is
    also detected sooner, piggybacked on normal traffic, when the
    reliable protocol exhausts retries against a crashed peer.
    An extreme straggler whose probe reply cannot cross the link within
    one heartbeat round — slowdown factor [f] with
    [f * 2 * latency_ns > hb_period_ns + 2 * latency_ns] — is {e
    falsely} declared failed at [hb_period_ns + f * 2 * latency_ns]
    (the classic slow-vs-dead ambiguity of timeout detectors); below
    that threshold a straggler is never declared.  Partitions never
    trigger declarations: the detector walks the plan's schedule, not
    the wire.  Declaration is idempotent and recorded in
    {!Stats}.[failures_detected], the ["rank_failed"] instant and the
    ["failure_detect_latency_ns"] histogram.  See
    docs/RESILIENCE.md. *)

val is_failed : context -> rank:int -> bool
val any_failures : context -> bool
val failed_ranks : context -> int list
(** Ranks declared failed so far, sorted ascending. *)

val on_failure : context -> (rank:int -> time:float -> unit) -> unit
(** Register a listener called exactly once per declared failure, at
    declaration time (from the detector fiber or the declaring send
    path). *)

(** {1 Operation cancellation} *)

val completed_request : tag:int -> error -> request
(** A request born complete with [error]: what fail-fast operations on
    a revoked or failure-poisoned communicator return without touching
    the wire. *)

val try_cancel : context -> request -> error -> bool
(** Complete a pending request early with [error] (its status carries
    the request's own tag), withdrawing any
    transport state that refers to it (posted receives, queued
    rendezvous envelopes) and releasing datatype callback state
    ([sg_finish]/[rg_finish]) exactly once.  Returns [false] — and does
    nothing — if the request had already completed.  In-flight transfer
    fibers for a cancelled request still run to completion on the
    virtual clock; their late completions are discarded. *)

(** {1 Topology} *)

val set_topology : context -> Mpicd_simnet.Topology.t option -> unit
(** Attach a network topology: all message motion (eager payloads,
    rendezvous transfers, retransmitted fragments, nack/poison control
    messages) routes over its links, paying path-scaled latency and
    sharing per-link bandwidth with concurrent transfers.  [None] (the
    default) is the flat wire — every cost reduces exactly to
    [latency_ns] / [wire_time], so detaching reproduces pre-topology
    runs bit-identically.  Heartbeat probing and failure-detection
    timing stay on the flat model (control plane).  Worker ids must lie
    inside the topology's rank set. *)

(** {1 Test-only knobs} *)

val set_channel_jitter : context -> (unit -> float) option -> unit
(** Install a per-message extra-delay generator (still respecting
    per-channel FIFO ordering).  Used by tests to perturb timing. *)
