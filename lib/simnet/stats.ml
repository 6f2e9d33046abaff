(** Per-simulation counters.

    The transport and datatype layers report what they do here; tests use
    the counters to assert zero-copy behaviour (e.g. "the custom path
    performed no full-payload memcpy") and benchmarks report copies
    alongside time.

    Every monotone count is one constructor of {!counter}, read with
    {!get} and bumped with {!incr}/{!add}.  Adding a counter is one
    constructor here and one case of {!name} (plus its row in
    docs/OBSERVABILITY.md, which a test checks).  Five values stay record
    fields: the two allocation levels, which go down as well as up, and
    the engine's three event counts, which it bumps on every event. *)

(** The counters.  All stay 0 unless the layer named in their group
    runs; docs/OBSERVABILITY.md explains each one. *)
type counter =
  (* messages and copies *)
  | Messages_sent
  | Bytes_on_wire
  | Eager_messages
  | Rndv_messages
  | Iov_entries  (** scatter/gather entries of iov sends *)
  | Memcpys
  | Bytes_copied
  | Allocs
  | Bytes_allocated
  (* callbacks and datatype work *)
  | Pack_callbacks
  | Unpack_callbacks
  | Query_callbacks
  | Region_queries
  | Ddt_blocks_processed
  | Probes
  (* reliability (docs/FAULTS.md): 0 unless a fault plan is attached *)
  | Retransmits
  | Frags_dropped
  | Frags_corrupted
  | Frags_duplicated
  | Acks
  | Nacks
  | Iov_fallbacks
  | Flap_waits
  | Delivery_timeouts
  | Failures_detected
      (** ranks declared failed by the liveness detector (or by retry
          exhaustion against a crashed peer) *)
  | Partition_drops
      (** fragments a network partition dropped, counted in
          [Frags_dropped] too *)
  | Injections_fired
      (** targeted single-shot injections that hit their exact
          [(src, dst, mseq, frag)] coordinate *)
  | Jittered_backoffs
      (** retransmit sleeps drawn with decorrelated jitter; 0 unless
          [Config.retx_jitter] is on *)
  (* resilience (docs/RESILIENCE.md): ULFM-style operations *)
  | Ops_cancelled
      (** pending operations completed early with [Peer_failed]/[Revoked] *)
  | Comm_revokes
  | Comm_shrinks
  | Comm_agreements
  (* pack plans (docs/PERFORMANCE.md): host-side bookkeeping only,
     never part of the virtual-time cost model *)
  | Plan_cache_hits
  | Plan_cache_misses
  (* checkpoint/restart (docs/RESILIENCE.md): 0 unless a checkpoint
     runtime is in use *)
  | Checkpoints_taken
  | Checkpoint_bytes
  | Buffers_restored
  | Msgs_logged
  | Msgs_replayed
  | Dups_suppressed
  | Recoveries
  (* engine (docs/PERFORMANCE.md): host-side only *)
  | Sleeps_in_place
      (** sleeps that continued without suspending the fiber, because
          their wake-up was the next event; also counted in
          [events_scheduled_total] *)
[@@deriving enum]

(** The counter's name in reports and docs. *)
let name = function
  | Messages_sent -> "messages_sent"
  | Bytes_on_wire -> "bytes_on_wire"
  | Eager_messages -> "eager_messages"
  | Rndv_messages -> "rndv_messages"
  | Iov_entries -> "iov_entries"
  | Memcpys -> "memcpys"
  | Bytes_copied -> "bytes_copied"
  | Allocs -> "allocs"
  | Bytes_allocated -> "bytes_allocated"
  | Pack_callbacks -> "pack_callbacks"
  | Unpack_callbacks -> "unpack_callbacks"
  | Query_callbacks -> "query_callbacks"
  | Region_queries -> "region_queries"
  | Ddt_blocks_processed -> "ddt_blocks_processed"
  | Probes -> "probes"
  | Retransmits -> "retransmits"
  | Frags_dropped -> "frags_dropped"
  | Frags_corrupted -> "frags_corrupted"
  | Frags_duplicated -> "frags_duplicated"
  | Acks -> "acks"
  | Nacks -> "nacks"
  | Iov_fallbacks -> "iov_fallbacks"
  | Flap_waits -> "flap_waits"
  | Delivery_timeouts -> "delivery_timeouts"
  | Failures_detected -> "failures_detected"
  | Partition_drops -> "partition_drops"
  | Injections_fired -> "injections_fired"
  | Jittered_backoffs -> "jittered_backoffs"
  | Ops_cancelled -> "ops_cancelled"
  | Comm_revokes -> "comm_revokes"
  | Comm_shrinks -> "comm_shrinks"
  | Comm_agreements -> "comm_agreements"
  | Plan_cache_hits -> "plan_cache_hits"
  | Plan_cache_misses -> "plan_cache_misses"
  | Checkpoints_taken -> "checkpoints_taken"
  | Checkpoint_bytes -> "checkpoint_bytes"
  | Buffers_restored -> "buffers_restored"
  | Msgs_logged -> "msgs_logged"
  | Msgs_replayed -> "msgs_replayed"
  | Dups_suppressed -> "dups_suppressed"
  | Recoveries -> "recoveries"
  | Sleeps_in_place -> "sleeps_in_place"

(** Every counter, in declaration order. *)
let all = List.init (max_counter + 1) (fun i -> Option.get (counter_of_enum i))

type t = {
  counts : int array;  (** indexed by [counter_to_enum] *)
  mutable live_alloc_bytes : int;
  mutable peak_alloc_bytes : int;
  (* The engine's event-queue traffic ([Engine.set_stats], done by
     [Mpi.create_world]; docs/PERFORMANCE.md, "Engine internals"). *)
  mutable events_scheduled_total : int;
      (** logical events scheduled (sleeps, resumptions, deliveries,
          spawns), a sleep that continued in place included *)
  mutable events_pooled_reuses : int;
      (** pushes served from the event-node pool instead of a fresh
          allocation; [total - reuses] is the engine's allocation count *)
  mutable max_live_events : int;
      (** high-water mark of simultaneously queued events *)
}

let create () =
  {
    counts = Array.make (max_counter + 1) 0;
    live_alloc_bytes = 0;
    peak_alloc_bytes = 0;
    events_scheduled_total = 0;
    events_pooled_reuses = 0;
    max_live_events = 0;
  }

let get t c = t.counts.(counter_to_enum c)

let add t c n =
  let i = counter_to_enum c in
  t.counts.(i) <- t.counts.(i) + n

let incr t c = add t c 1

(** Publish [t] into an observability registry as counters: every
    nonzero counter under its {!name}, and the engine's three event
    counts under their field names.  Reports export counts only this
    way, so each appears once and equals [t]. *)
let publish t m =
  let put name v =
    if v <> 0 then Mpicd_obs.Metrics.inc ~by:v (Mpicd_obs.Metrics.counter m name)
  in
  List.iter (fun c -> put (name c) (get t c)) all;
  put "events_scheduled_total" t.events_scheduled_total;
  put "events_pooled_reuses" t.events_pooled_reuses;
  put "max_live_events" t.max_live_events

let record_message t ~eager ~wire_bytes =
  incr t Messages_sent;
  add t Bytes_on_wire wire_bytes;
  incr t (if eager then Eager_messages else Rndv_messages)

let record_copy t bytes =
  incr t Memcpys;
  add t Bytes_copied bytes

(** An allocation of [bytes]: counted, and raises the live level (and the
    peak with it) until {!record_free}. *)
let record_alloc t bytes =
  incr t Allocs;
  add t Bytes_allocated bytes;
  t.live_alloc_bytes <- t.live_alloc_bytes + bytes;
  if t.live_alloc_bytes > t.peak_alloc_bytes then
    t.peak_alloc_bytes <- t.live_alloc_bytes

let record_free t bytes = t.live_alloc_bytes <- t.live_alloc_bytes - bytes

let record_checkpoint t ~bytes =
  incr t Checkpoints_taken;
  add t Checkpoint_bytes bytes

(** One engine event scheduled; [reused] unless its push grew the
    queue's storage, [live] the queue depth with it (feeds
    [max_live_events]). *)
let record_event_scheduled t ~reused ~live =
  t.events_scheduled_total <- t.events_scheduled_total + 1;
  if reused then t.events_pooled_reuses <- t.events_pooled_reuses + 1;
  if live > t.max_live_events then t.max_live_events <- live

(** The reliability counters. *)
let reliability =
  [
    Retransmits; Frags_dropped; Frags_corrupted; Frags_duplicated; Acks; Nacks;
    Iov_fallbacks; Flap_waits; Delivery_timeouts; Failures_detected;
    Partition_drops; Injections_fired;
  ]

(** Sum of the {!reliability} counters: 0 iff the run was fault-free. *)
let reliability_events t = List.fold_left (fun n c -> n + get t c) 0 reliability

(** Independent copy of the current counters. *)
let snapshot t = { t with counts = Array.copy t.counts }

(** Counter-wise subtraction, for measuring a single operation.  The
    levels ([live_alloc_bytes], [peak_alloc_bytes]) and the
    [max_live_events] high-water mark carry the [after] values. *)
let diff ~after ~before =
  {
    after with
    counts = Array.map2 ( - ) after.counts before.counts;
    events_scheduled_total =
      after.events_scheduled_total - before.events_scheduled_total;
    events_pooled_reuses = after.events_pooled_reuses - before.events_pooled_reuses;
  }
