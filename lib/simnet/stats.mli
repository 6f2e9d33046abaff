(** Per-simulation counters.

    The transport and datatype layers report what they do here; tests use
    the counters to assert zero-copy behaviour (e.g. "the custom path
    performed no full-payload memcpy") and benchmarks report memory
    amplification alongside time. *)

type t = {
  mutable messages_sent : int;
  mutable bytes_on_wire : int;
  mutable eager_messages : int;
  mutable rndv_messages : int;
  mutable iov_entries : int;
  mutable memcpys : int;
  mutable bytes_copied : int;
  mutable allocs : int;
  mutable bytes_allocated : int;
  mutable live_alloc_bytes : int;
  mutable peak_alloc_bytes : int;
  mutable pack_callbacks : int;
  mutable unpack_callbacks : int;
  mutable query_callbacks : int;
  mutable region_queries : int;
  mutable ddt_blocks_processed : int;
  mutable probes : int;
  (* Reliability counters (see docs/FAULTS.md): all remain 0 unless a
     fault plan is attached to the transport. *)
  mutable retransmits : int;
  mutable frags_dropped : int;
  mutable frags_corrupted : int;
  mutable frags_duplicated : int;
  mutable acks : int;
  mutable nacks : int;
  mutable iov_fallbacks : int;
  mutable flap_waits : int;
  mutable delivery_timeouts : int;
  mutable failures_detected : int;
      (** ranks declared failed by the liveness detector (or by retry
          exhaustion against a crashed peer); 0 without a crash plan *)
  (* Resilience counters (see docs/RESILIENCE.md): driven by explicit
     ULFM-style operations and failure-triggered cancellation. *)
  mutable ops_cancelled : int;
      (** pending operations completed early with [Peer_failed]/[Revoked] *)
  mutable comm_revokes : int;
  mutable comm_shrinks : int;
  mutable comm_agreements : int;
  (* Datatype pack-plan counters (see docs/PERFORMANCE.md): host-side
     bookkeeping only, never part of the virtual-time cost model. *)
  mutable plan_cache_hits : int;
      (** typed operations that found a compiled pack plan in the cache *)
  mutable plan_cache_misses : int;
      (** typed operations that had to flatten a datatype into a plan *)
  (* Checkpoint/restart counters (see docs/RESILIENCE.md): driven by the
     lib/restart runtime.  All remain 0 unless a checkpoint runtime is
     in use. *)
  mutable checkpoints_taken : int;
      (** plan-serialized buffer snapshots written to the store *)
  mutable checkpoint_bytes : int;
      (** total snapshot bytes written (headers + packed payloads) *)
  mutable buffers_restored : int;
      (** registered buffers plan-decoded back from snapshots *)
  mutable msgs_logged : int;
      (** application envelopes recorded by the sender-based message log *)
  mutable msgs_replayed : int;
      (** re-executed sends verified byte-identical against the log *)
  mutable dups_suppressed : int;
      (** duplicate/stale envelopes discarded by the receive-side filter *)
  mutable recoveries : int;  (** recovery rounds run by the orchestrator *)
  mutable jittered_backoffs : int;
      (** retransmit sleeps drawn with decorrelated jitter; 0 unless
          [Config.retx_jitter] is on *)
  mutable partition_drops : int;
      (** fragments dropped by an active network partition (counted in
          addition to [frags_dropped]); 0 without a partition plan *)
  mutable injections_fired : int;
      (** targeted single-shot injections that hit their exact
          [(src, dst, mseq, frag)] coordinate; 0 without injections *)
  (* Engine counters (see docs/PERFORMANCE.md, "Engine internals"):
     event-queue traffic of the simulation engine, for attributing
     scheduler overhead.  All remain 0 unless a Stats sink is attached
     to the engine ([Engine.set_stats], done by [Mpi.create_world]). *)
  mutable events_scheduled_total : int;
      (** events pushed into the engine's queue (sleeps, resumptions,
          deliveries, spawns) *)
  mutable events_pooled_reuses : int;
      (** pushes served from the event-node pool instead of a fresh
          allocation; [total - reuses] is the engine's allocation count *)
  mutable max_live_events : int;
      (** high-water mark of simultaneously queued events *)
}

val create : unit -> t
val reset : t -> unit

val record_message : t -> eager:bool -> wire_bytes:int -> unit
val record_iov_entries : t -> int -> unit
val record_copy : t -> int -> unit
val record_alloc : t -> int -> unit
val record_free : t -> int -> unit
val record_pack_cb : t -> unit
val record_unpack_cb : t -> unit
val record_query_cb : t -> unit
val record_region_query : t -> unit
val record_ddt_blocks : t -> int -> unit
val record_probe : t -> unit

(** {1 Reliability events} (recorded by the transport's reliable-delivery
    protocol; see docs/FAULTS.md) *)

val record_retransmit : t -> unit
val record_frag_drop : t -> unit
val record_frag_corrupt : t -> unit
val record_frag_dup : t -> unit
val record_ack : t -> unit
val record_nack : t -> unit
val record_iov_fallback : t -> unit
val record_flap_wait : t -> unit
val record_delivery_timeout : t -> unit
val record_failure_detected : t -> unit
val record_partition_drop : t -> unit
val record_injection_fired : t -> unit

(** {1 Resilience events} (recorded by the ULFM-style layer;
    see docs/RESILIENCE.md) *)

val record_op_cancelled : t -> unit
val record_comm_revoke : t -> unit
val record_comm_shrink : t -> unit
val record_comm_agreement : t -> unit

(** {1 Pack-plan events} (recorded by the datatype plan cache; see
    docs/PERFORMANCE.md) *)

val record_plan_hit : t -> unit
val record_plan_miss : t -> unit

(** {1 Checkpoint/restart events} (recorded by the lib/restart runtime;
    see docs/RESILIENCE.md) *)

val record_event_scheduled : t -> reused:bool -> live:int -> unit
(** One engine event pushed; [reused] if its node came from the pool,
    [live] the queue depth after the push (feeds [max_live_events]). *)

val record_checkpoint : t -> bytes:int -> unit
val record_restore : t -> unit
val record_msg_logged : t -> unit
val record_msg_replayed : t -> unit
val record_dup_suppressed : t -> unit
val record_recovery : t -> unit
val record_jittered_backoff : t -> unit

val reliability_events : t -> int
(** Sum of all reliability counters (including [failures_detected]);
    0 iff the run was fault-free. *)

val snapshot : t -> t
(** Independent copy of the current counters. *)

val diff : after:t -> before:t -> t
(** Field-wise subtraction, for measuring a single operation.  The
    [live_alloc_bytes]/[peak_alloc_bytes] fields of the result carry the
    [after] values. *)

val memory_amplification : t -> float
(** [bytes_copied / bytes_on_wire]: CPU bytes copied per wire byte
    (0 when nothing crossed the wire).  1.0 means one full staging
    copy; 0.0 is the zero-copy ideal. *)

val mean_iov_entries : t -> float
(** [iov_entries / messages_sent]: average scatter/gather list length
    per message (0 when no messages were sent). *)

val pp : Format.formatter -> t -> unit
(** Includes the derived metrics above on a trailing line. *)
