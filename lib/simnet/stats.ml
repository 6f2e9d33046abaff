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
  (* reliability counters: all stay 0 unless a fault plan is attached *)
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
  (* resilience counters: driven by explicit ULFM-style operations
     (revoke/shrink/agree) and by failure-triggered cancellation *)
  mutable ops_cancelled : int;
  mutable comm_revokes : int;
  mutable comm_shrinks : int;
  mutable comm_agreements : int;
  (* datatype pack-plan counters: compilation cache traffic.
     Host-side only — they never feed the virtual-time cost model. *)
  mutable plan_cache_hits : int;
  mutable plan_cache_misses : int;
  (* checkpoint/restart counters: driven by the lib/restart runtime
     (plan-serialized snapshots, sender-based message logging, recovery
     rounds).  All stay 0 unless a checkpoint runtime is in use. *)
  mutable checkpoints_taken : int;
  mutable checkpoint_bytes : int;
  mutable buffers_restored : int;
  mutable msgs_logged : int;
  mutable msgs_replayed : int;
  mutable dups_suppressed : int;
  mutable recoveries : int;
  (* decorrelated-jitter draws on the retransmit backoff; stays 0
     unless [Config.retx_jitter] is on *)
  mutable jittered_backoffs : int;
  (* explorer fault-model counters: deterministic partition cuts and
     targeted single-shot injections; both stay 0 unless a plan with
     partitions/injections is attached *)
  mutable partition_drops : int;
  mutable injections_fired : int;
  (* engine counters: event-queue traffic of the simulation engine
     itself, for attributing scheduler overhead.  Populated only when a
     Stats sink is attached to the engine ([Engine.set_stats]). *)
  mutable events_scheduled_total : int;
  mutable events_pooled_reuses : int;
  mutable max_live_events : int;
}

let create () =
  {
    messages_sent = 0;
    bytes_on_wire = 0;
    eager_messages = 0;
    rndv_messages = 0;
    iov_entries = 0;
    memcpys = 0;
    bytes_copied = 0;
    allocs = 0;
    bytes_allocated = 0;
    live_alloc_bytes = 0;
    peak_alloc_bytes = 0;
    pack_callbacks = 0;
    unpack_callbacks = 0;
    query_callbacks = 0;
    region_queries = 0;
    ddt_blocks_processed = 0;
    probes = 0;
    retransmits = 0;
    frags_dropped = 0;
    frags_corrupted = 0;
    frags_duplicated = 0;
    acks = 0;
    nacks = 0;
    iov_fallbacks = 0;
    flap_waits = 0;
    delivery_timeouts = 0;
    failures_detected = 0;
    ops_cancelled = 0;
    comm_revokes = 0;
    comm_shrinks = 0;
    comm_agreements = 0;
    plan_cache_hits = 0;
    plan_cache_misses = 0;
    checkpoints_taken = 0;
    checkpoint_bytes = 0;
    buffers_restored = 0;
    msgs_logged = 0;
    msgs_replayed = 0;
    dups_suppressed = 0;
    recoveries = 0;
    jittered_backoffs = 0;
    partition_drops = 0;
    injections_fired = 0;
    events_scheduled_total = 0;
    events_pooled_reuses = 0;
    max_live_events = 0;
  }

let reset t =
  t.messages_sent <- 0;
  t.bytes_on_wire <- 0;
  t.eager_messages <- 0;
  t.rndv_messages <- 0;
  t.iov_entries <- 0;
  t.memcpys <- 0;
  t.bytes_copied <- 0;
  t.allocs <- 0;
  t.bytes_allocated <- 0;
  t.live_alloc_bytes <- 0;
  t.peak_alloc_bytes <- 0;
  t.pack_callbacks <- 0;
  t.unpack_callbacks <- 0;
  t.query_callbacks <- 0;
  t.region_queries <- 0;
  t.ddt_blocks_processed <- 0;
  t.probes <- 0;
  t.retransmits <- 0;
  t.frags_dropped <- 0;
  t.frags_corrupted <- 0;
  t.frags_duplicated <- 0;
  t.acks <- 0;
  t.nacks <- 0;
  t.iov_fallbacks <- 0;
  t.flap_waits <- 0;
  t.delivery_timeouts <- 0;
  t.failures_detected <- 0;
  t.ops_cancelled <- 0;
  t.comm_revokes <- 0;
  t.comm_shrinks <- 0;
  t.comm_agreements <- 0;
  t.plan_cache_hits <- 0;
  t.plan_cache_misses <- 0;
  t.checkpoints_taken <- 0;
  t.checkpoint_bytes <- 0;
  t.buffers_restored <- 0;
  t.msgs_logged <- 0;
  t.msgs_replayed <- 0;
  t.dups_suppressed <- 0;
  t.recoveries <- 0;
  t.jittered_backoffs <- 0;
  t.partition_drops <- 0;
  t.injections_fired <- 0;
  t.events_scheduled_total <- 0;
  t.events_pooled_reuses <- 0;
  t.max_live_events <- 0

let record_message t ~eager ~wire_bytes =
  t.messages_sent <- t.messages_sent + 1;
  t.bytes_on_wire <- t.bytes_on_wire + wire_bytes;
  if eager then t.eager_messages <- t.eager_messages + 1
  else t.rndv_messages <- t.rndv_messages + 1

let record_iov_entries t n = t.iov_entries <- t.iov_entries + n

let record_copy t bytes =
  t.memcpys <- t.memcpys + 1;
  t.bytes_copied <- t.bytes_copied + bytes

let record_alloc t bytes =
  t.allocs <- t.allocs + 1;
  t.bytes_allocated <- t.bytes_allocated + bytes;
  t.live_alloc_bytes <- t.live_alloc_bytes + bytes;
  if t.live_alloc_bytes > t.peak_alloc_bytes then
    t.peak_alloc_bytes <- t.live_alloc_bytes

let record_free t bytes =
  t.live_alloc_bytes <- t.live_alloc_bytes - bytes

let record_pack_cb t = t.pack_callbacks <- t.pack_callbacks + 1
let record_unpack_cb t = t.unpack_callbacks <- t.unpack_callbacks + 1
let record_query_cb t = t.query_callbacks <- t.query_callbacks + 1
let record_region_query t = t.region_queries <- t.region_queries + 1

let record_ddt_blocks t n =
  t.ddt_blocks_processed <- t.ddt_blocks_processed + n

let record_probe t = t.probes <- t.probes + 1

let record_retransmit t = t.retransmits <- t.retransmits + 1
let record_frag_drop t = t.frags_dropped <- t.frags_dropped + 1
let record_frag_corrupt t = t.frags_corrupted <- t.frags_corrupted + 1
let record_frag_dup t = t.frags_duplicated <- t.frags_duplicated + 1
let record_ack t = t.acks <- t.acks + 1
let record_nack t = t.nacks <- t.nacks + 1
let record_iov_fallback t = t.iov_fallbacks <- t.iov_fallbacks + 1
let record_flap_wait t = t.flap_waits <- t.flap_waits + 1
let record_delivery_timeout t = t.delivery_timeouts <- t.delivery_timeouts + 1
let record_failure_detected t = t.failures_detected <- t.failures_detected + 1
let record_op_cancelled t = t.ops_cancelled <- t.ops_cancelled + 1
let record_comm_revoke t = t.comm_revokes <- t.comm_revokes + 1
let record_comm_shrink t = t.comm_shrinks <- t.comm_shrinks + 1
let record_comm_agreement t = t.comm_agreements <- t.comm_agreements + 1
let record_plan_hit t = t.plan_cache_hits <- t.plan_cache_hits + 1
let record_plan_miss t = t.plan_cache_misses <- t.plan_cache_misses + 1

let record_checkpoint t ~bytes =
  t.checkpoints_taken <- t.checkpoints_taken + 1;
  t.checkpoint_bytes <- t.checkpoint_bytes + bytes

let record_restore t = t.buffers_restored <- t.buffers_restored + 1
let record_msg_logged t = t.msgs_logged <- t.msgs_logged + 1
let record_msg_replayed t = t.msgs_replayed <- t.msgs_replayed + 1
let record_dup_suppressed t = t.dups_suppressed <- t.dups_suppressed + 1
let record_recovery t = t.recoveries <- t.recoveries + 1
let record_jittered_backoff t = t.jittered_backoffs <- t.jittered_backoffs + 1
let record_partition_drop t = t.partition_drops <- t.partition_drops + 1
let record_injection_fired t = t.injections_fired <- t.injections_fired + 1

let record_event_scheduled t ~reused ~live =
  t.events_scheduled_total <- t.events_scheduled_total + 1;
  if reused then t.events_pooled_reuses <- t.events_pooled_reuses + 1;
  if live > t.max_live_events then t.max_live_events <- live

let snapshot t = { t with messages_sent = t.messages_sent }

let diff ~after ~before =
  {
    messages_sent = after.messages_sent - before.messages_sent;
    bytes_on_wire = after.bytes_on_wire - before.bytes_on_wire;
    eager_messages = after.eager_messages - before.eager_messages;
    rndv_messages = after.rndv_messages - before.rndv_messages;
    iov_entries = after.iov_entries - before.iov_entries;
    memcpys = after.memcpys - before.memcpys;
    bytes_copied = after.bytes_copied - before.bytes_copied;
    allocs = after.allocs - before.allocs;
    bytes_allocated = after.bytes_allocated - before.bytes_allocated;
    live_alloc_bytes = after.live_alloc_bytes;
    peak_alloc_bytes = after.peak_alloc_bytes;
    pack_callbacks = after.pack_callbacks - before.pack_callbacks;
    unpack_callbacks = after.unpack_callbacks - before.unpack_callbacks;
    query_callbacks = after.query_callbacks - before.query_callbacks;
    region_queries = after.region_queries - before.region_queries;
    ddt_blocks_processed =
      after.ddt_blocks_processed - before.ddt_blocks_processed;
    probes = after.probes - before.probes;
    retransmits = after.retransmits - before.retransmits;
    frags_dropped = after.frags_dropped - before.frags_dropped;
    frags_corrupted = after.frags_corrupted - before.frags_corrupted;
    frags_duplicated = after.frags_duplicated - before.frags_duplicated;
    acks = after.acks - before.acks;
    nacks = after.nacks - before.nacks;
    iov_fallbacks = after.iov_fallbacks - before.iov_fallbacks;
    flap_waits = after.flap_waits - before.flap_waits;
    delivery_timeouts = after.delivery_timeouts - before.delivery_timeouts;
    failures_detected = after.failures_detected - before.failures_detected;
    ops_cancelled = after.ops_cancelled - before.ops_cancelled;
    comm_revokes = after.comm_revokes - before.comm_revokes;
    comm_shrinks = after.comm_shrinks - before.comm_shrinks;
    comm_agreements = after.comm_agreements - before.comm_agreements;
    plan_cache_hits = after.plan_cache_hits - before.plan_cache_hits;
    plan_cache_misses = after.plan_cache_misses - before.plan_cache_misses;
    checkpoints_taken = after.checkpoints_taken - before.checkpoints_taken;
    checkpoint_bytes = after.checkpoint_bytes - before.checkpoint_bytes;
    buffers_restored = after.buffers_restored - before.buffers_restored;
    msgs_logged = after.msgs_logged - before.msgs_logged;
    msgs_replayed = after.msgs_replayed - before.msgs_replayed;
    dups_suppressed = after.dups_suppressed - before.dups_suppressed;
    recoveries = after.recoveries - before.recoveries;
    jittered_backoffs = after.jittered_backoffs - before.jittered_backoffs;
    partition_drops = after.partition_drops - before.partition_drops;
    injections_fired = after.injections_fired - before.injections_fired;
    events_scheduled_total =
      after.events_scheduled_total - before.events_scheduled_total;
    events_pooled_reuses =
      after.events_pooled_reuses - before.events_pooled_reuses;
    (* like [peak_alloc_bytes]: a high-water mark, not a delta *)
    max_live_events = after.max_live_events;
  }

(* Derived metrics: memory amplification is how many bytes the CPU
   copied per byte that crossed the wire (1.0 = one full staging copy;
   0.0 = pure zero-copy); mean iov entries shows how fragmented the
   average message's scatter/gather list was. *)
let memory_amplification t =
  if t.bytes_on_wire = 0 then 0.
  else float_of_int t.bytes_copied /. float_of_int t.bytes_on_wire

let mean_iov_entries t =
  if t.messages_sent = 0 then 0.
  else float_of_int t.iov_entries /. float_of_int t.messages_sent

let reliability_events t =
  t.retransmits + t.frags_dropped + t.frags_corrupted + t.frags_duplicated
  + t.acks + t.nacks + t.iov_fallbacks + t.flap_waits + t.delivery_timeouts
  + t.failures_detected + t.partition_drops + t.injections_fired

let resilience_events t =
  t.ops_cancelled + t.comm_revokes + t.comm_shrinks + t.comm_agreements

let ckpt_events t =
  t.checkpoints_taken + t.buffers_restored + t.msgs_logged + t.msgs_replayed
  + t.dups_suppressed + t.recoveries

let pp ppf t =
  Format.fprintf ppf
    "@[<v>msgs=%d (eager %d, rndv %d) wire=%dB iov_entries=%d@,\
     memcpys=%d copied=%dB allocs=%d allocated=%dB peak=%dB@,\
     callbacks: pack=%d unpack=%d query=%d regions=%d ddt_blocks=%d \
     probes=%d@,\
     derived: mem_amplification=%.2f mean_iov_per_msg=%.2f"
    t.messages_sent t.eager_messages t.rndv_messages t.bytes_on_wire
    t.iov_entries t.memcpys t.bytes_copied t.allocs t.bytes_allocated
    t.peak_alloc_bytes t.pack_callbacks t.unpack_callbacks t.query_callbacks
    t.region_queries t.ddt_blocks_processed t.probes
    (memory_amplification t) (mean_iov_entries t);
  (* The reliability line appears only when something fired, so the
     rendering of fault-free runs is byte-identical to the pre-fault
     format. *)
  if reliability_events t > 0 then
    Format.fprintf ppf
      "@,reliability: retx=%d drops=%d corrupt=%d dups=%d acks=%d nacks=%d \
       iov_fallbacks=%d flap_waits=%d timeouts=%d failures=%d"
      t.retransmits t.frags_dropped t.frags_corrupted t.frags_duplicated
      t.acks t.nacks t.iov_fallbacks t.flap_waits t.delivery_timeouts
      t.failures_detected;
  (* Appended separately so plans without the explorer fault kinds
     render exactly as before. *)
  if t.partition_drops > 0 || t.injections_fired > 0 then
    Format.fprintf ppf " parts=%d inj=%d" t.partition_drops t.injections_fired;
  if resilience_events t > 0 then
    Format.fprintf ppf
      "@,resilience: cancelled=%d revokes=%d shrinks=%d agreements=%d"
      t.ops_cancelled t.comm_revokes t.comm_shrinks t.comm_agreements;
  (* Like the reliability line: only rendered when plans were in play,
     so byte-only workloads print exactly as before. *)
  if t.plan_cache_hits + t.plan_cache_misses > 0 then
    Format.fprintf ppf "@,plans: cache_hits=%d cache_misses=%d" t.plan_cache_hits
      t.plan_cache_misses;
  (* Rendered only when a checkpoint runtime (or jitter) was in play, so
     every pre-restart workload prints exactly as before. *)
  if ckpt_events t > 0 || t.jittered_backoffs > 0 then
    Format.fprintf ppf
      "@,ckpt: taken=%d bytes=%d restored=%d logged=%d replayed=%d \
       dups=%d recoveries=%d jittered=%d"
      t.checkpoints_taken t.checkpoint_bytes t.buffers_restored t.msgs_logged
      t.msgs_replayed t.dups_suppressed t.recoveries t.jittered_backoffs;
  (* Rendered only when the engine has a Stats sink attached
     ([Engine.set_stats]), so every pre-existing workload prints exactly
     as before. *)
  if t.events_scheduled_total > 0 then
    Format.fprintf ppf "@,engine: events=%d pooled=%d max_live=%d"
      t.events_scheduled_total t.events_pooled_reuses t.max_live_events;
  Format.fprintf ppf "@]"
