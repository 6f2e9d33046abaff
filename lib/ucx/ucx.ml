module Buf = Mpicd_buf.Buf
module Iov = Buf.Iov
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Fault = Mpicd_simnet.Fault
module Topology = Mpicd_simnet.Topology
module Obs = Mpicd_obs.Obs
module Metrics = Mpicd_obs.Metrics

exception Callback_error of int

type send_generic = {
  sg_packed_size : int;
  sg_pack : offset:int -> dst:Buf.t -> int;
  sg_finish : unit -> unit;
  sg_overhead_ns : float;
}

type recv_generic = {
  rg_capacity : int;
  rg_unpack : offset:int -> src:Buf.t -> int;
      (* returns bytes consumed; must equal the fragment length (every
         delivered fragment lies wholly inside the packed stream) *)
  rg_finish : unit -> unit;
  rg_overhead_ns : float;
}

(* A posted [Sd_iov]/[Rd_iov] list becomes [Sd_regions]/[Rd_regions]
   once, on entry ([regions_send]/[regions_recv]): the transport
   carries no list. *)
type send_dt =
  | Sd_contig of Buf.t
  | Sd_iov of Buf.t list
  | Sd_regions of Iov.t
  | Sd_generic of send_generic

type recv_dt =
  | Rd_contig of Buf.t
  | Rd_iov of Buf.t list
  | Rd_regions of Iov.t
  | Rd_generic of recv_generic

let[@inline] regions_send = function Sd_iov l -> Sd_regions (Iov.of_list l) | dt -> dt
let[@inline] regions_recv = function Rd_iov l -> Rd_regions (Iov.of_list l) | dt -> dt

type error =
  | Truncated of { expected : int; capacity : int }
  | Callback_failed of int
  | Timeout of { retries : int }
  | Peer_failed of { peer : int }
  | Data_corrupted
  | Revoked

type status = { len : int; tag : int; error : error option }

(* A request's status until it completes, compared physically. *)
let pending = { len = -1; tag = 0; error = None }

type owner = ..
type owner += No_owner

(* One record per operation.  It is the completion cell (status and
   parked waiters), a receive's posted-queue entry (match filter,
   descriptor and link), and the upper layer's per-operation state
   (owner slot and a list link). *)
type request = {
  mutable r_status : status;  (* [pending] until complete *)
  mutable r_waiter : status Engine.waiter;
  mutable r_seq : int;
      (* per-context message sequence number ("mseq") of the message this
         request sends or received; -1 until known.  Purely diagnostic:
         it joins send and receive spans across ranks in trace
         analysis and never influences matching or timing. *)
  r_tag : int;
  r_mask : int;
  r_peer : int;
  r_dt : recv_dt;
  mutable r_next : request;  (* posted-queue link; [no_request] ends it *)
  mutable r_owner : owner;
  mutable r_link : request;
}

let no_recv = Rd_regions Iov.empty

let rec no_request =
  { r_status = pending; r_waiter = Engine.idle; r_seq = -1; r_tag = 0; r_mask = 0;
    r_peer = -1; r_dt = no_recv; r_next = no_request; r_owner = No_owner;
    r_link = no_request }

let make_request ~tag ~mask ~peer dt =
  { no_request with r_tag = tag; r_mask = mask; r_peer = peer; r_dt = dt }

let waiter_slot =
  { Engine.get = (fun r -> r.r_waiter); set = (fun r w -> r.r_waiter <- w) }

type payload =
  | P_eager  (* the bytes are [e_data], a contig send's snapshot *)
  | P_frags of Buf.t list
      (* views of [e_data]: a generic pack's fragments, one per
         callback, or the reliable path's delivered slices *)
  | P_rndv of rndv
  | P_nack of error
      (* poison envelope: a failed transfer notifying the receiver, so a
         posted receive completes with an error instead of deadlocking *)

and rndv = {
  r_dt : send_dt;
  r_request : request;  (* sender request, completed when transfer ends *)
  mutable r_done : bool;
      (* send-descriptor state released (packed or aborted); guards the
         exactly-once [sg_finish] guarantee when an RTS is withdrawn *)
}

type envelope = {
  e_tag : int;
  e_total : int;
  e_src : int;
  e_seq : int;  (* context-wide message sequence number, for trace joins *)
  e_payload : payload;
  mutable e_data : Buf.t;
      (* the slot of [slabs] holding the message's bytes, given back
         once by [release] when the message ends: an eager send's
         snapshot or pack, or a rendezvous's pack or gather once
         staged; empty otherwise *)
  mutable e_unexpected_alloc : int;
      (* receiver bytes allocated to hold this envelope while unexpected *)
  e_sent_at : float;  (* virtual send-post time, for latency histograms *)
  mutable e_queued_at : float;
      (* when it entered the unexpected queue; NaN if never queued *)
  mutable e_matched : bool;
      (* set by [process_match]; guards the rendezvous-handshake timer *)
  mutable e_next : envelope;  (* unexpected-queue link; [no_env] ends it *)
}

let no_data = Buf.create 0

let rec no_env =
  { e_tag = 0; e_total = 0; e_src = -1; e_seq = -1; e_payload = P_eager; e_data = no_data;
    e_unexpected_alloc = 0; e_sent_at = 0.; e_queued_at = Float.nan; e_matched = false;
    e_next = no_env }

type probe_info = { p_tag : int; p_len : int; p_src_worker : int }

type message = envelope

(* Per-channel FIFO clocks, keyed by one int: [channel_key] packs the
   (src, dst) worker pair.  An open-addressing table with linear
   probing, grown at three-quarters load, holds them: a key array ([-1]
   is a free slot) and a float array of clocks, unboxed, so a channel
   costs three to six words and advancing its clock stores the float in
   place. *)
type chans = { mutable keys : int array; mutable at : Float.Array.t; mutable used : int }

let channel_key ~src ~dst = (src lsl 31) lor dst

let rec chan_slot ch key i =
  let k = Array.unsafe_get ch.keys i in
  if k = key || k < 0 then i else chan_slot ch key ((i + 1) land (Array.length ch.keys - 1))

(* A multiplicative hash: the key's bits mixed into the middle of the
   product, with no call into the runtime's generic [Hashtbl.hash]. *)
let chan_hash key = (key * 0x2545_f491_4f6c_dd1d) lsr 23

let rec chan_index ch key =
  let i = chan_slot ch key (chan_hash key land (Array.length ch.keys - 1)) in
  if ch.keys.(i) = key then i
  else if 4 * (ch.used + 1) <= 3 * Array.length ch.keys then begin
    ch.keys.(i) <- key;
    ch.used <- ch.used + 1;
    i
  end
  else begin
    let keys = ch.keys and at = ch.at in
    ch.keys <- Array.make (2 * Array.length keys) (-1);
    ch.at <- Float.Array.make (2 * Array.length keys) 0.;
    ch.used <- 0;
    Array.iteri (fun j k -> if k >= 0 then Float.Array.set ch.at (chan_index ch k) (Float.Array.get at j)) keys;
    chan_index ch key
  end

(* Every queue is linked through its entries, oldest first, with the
   newest kept for an O(1) append. *)
type worker = {
  id : int;
  ctx : context;
  mutable posted : request;  (* receives, in post order *)
  mutable posted_last : request;
  mutable unexpected : envelope;  (* in arrival order *)
  mutable unexpected_last : envelope;
  mutable probes : probes;
      (* [no_probes] until a probe first blocks on this worker: a
         waiting rank's worker keeps one word for its probe queues *)
}

and probes = {
  mutable peekers : prober;  (* blocked probes, in blocking order *)
  mutable peekers_last : prober;
  mutable takers : prober;  (* blocked mprobes, in blocking order *)
  mutable takers_last : prober;
}

(* A blocked probe of [(tag, mask)], parked until a matching envelope
   arrives: a peeker leaves the envelope queued, a taker dequeues it. *)
and prober = {
  pb_tag : int;
  pb_mask : int;
  mutable pb_waiter : message Engine.waiter;
  mutable pb_next : prober;  (* queue link; [no_prober] ends it *)
}

and context = {
  engine : Engine.t;
  config : Config.t;
  stats : Stats.t;
  mutable next_worker : int;
  mutable next_mseq : int;  (* message sequence allocator (see [e_seq]) *)
  mutable workers_list : worker list;  (* newest first; for cancellation *)
  channels : chans;
      (* per (src,dst) pair: earliest next delivery time, for FIFO order *)
  mutable jitter : (unit -> float) option;
  mutable obs : Obs.t;
  mutable observed : bool;
      (* [Obs.enabled obs], kept here: a dev build compiles libraries
         [-opaque], so the getter would be a real call per test *)
  mutable faults : Fault.runtime option;
      (* [None] (the default) leaves every fault-free code path exactly
         as it was: the reliable-delivery protocol only engages when a
         plan is attached *)
  mutable retx_rng : Mpicd_simnet.Rng.t option;
      (* dedicated decorrelated-jitter stream for retransmit backoff
         ([Config.retx_jitter]); separate from the fault-decision stream
         so enabling jitter never perturbs drop/corrupt fates *)
  failed : (int, float) Hashtbl.t;  (* worker id -> detection time *)
  mutable any_failed : bool;  (* cheap guard for fail-fast checks *)
  mutable fail_listeners : (rank:int -> time:float -> unit) list;
  mutable topology : Topology.t option;
      (* [None] (the default) is the flat wire: every path helper below
         reduces exactly to [latency_ns] / [wire_time], so existing
         virtual-time results are bit-identical.  With a topology
         attached, message motion routes over its links and shares
         their bandwidth *)
  slabs : Buf.Slabs.t;
      (* message slots ([e_data]), with or without a plan: a deposit, a
         truncation or a failed transfer gives each back, so the storage
         stops growing at the in-flight depth *)
}

type endpoint = { ep_src : worker; ep_dst : worker }

let rec no_prober = { pb_tag = 0; pb_mask = 0; pb_waiter = Engine.idle; pb_next = no_prober }

let empty_probes () =
  { peekers = no_prober; peekers_last = no_prober; takers = no_prober; takers_last = no_prober }

(* Shared by every worker no probe has blocked on, so never pushed to. *)
let no_probes = empty_probes ()

let prober_slot =
  { Engine.get = (fun p -> p.pb_waiter); set = (fun p w -> p.pb_waiter <- w) }

let create_context ~engine ~config ~stats =
  {
    engine;
    config;
    stats;
    next_worker = 0;
    next_mseq = 0;
    workers_list = [];
    channels = { keys = Array.make 16 (-1); at = Float.Array.make 16 0.; used = 0 };
    jitter = None;
    obs = Obs.null;
    observed = false;
    faults = None;
    retx_rng = None;
    failed = Hashtbl.create 8;
    any_failed = false;
    fail_listeners = [];
    topology = None;
    slabs = Buf.Slabs.create ();
  }

let slabs c = c.slabs
let set_channel_jitter c j = c.jitter <- j
let set_topology c topo = c.topology <- topo
let set_obs c o =
  c.obs <- o;
  c.observed <- Obs.enabled o
let faults c = Option.map Fault.plan c.faults

(* --- observability helpers ---

   All span durations below are *derived* from the same modeled delays
   the simulation charges elsewhere; recording never advances the clock
   or touches [Stats], so an attached sink observes an unchanged run. *)

let[@inline] obs_on ctx = ctx.observed

let[@inline] observe ctx name v =
  if obs_on ctx then Metrics.observe (Metrics.histogram (Obs.metrics ctx.obs) name) v

let create_worker ctx =
  let id = ctx.next_worker in
  ctx.next_worker <- id + 1;
  let w =
    {
      id;
      ctx;
      posted = no_request;
      posted_last = no_request;
      unexpected = no_env;
      unexpected_last = no_env;
      probes = no_probes;
    }
  in
  ctx.workers_list <- w :: ctx.workers_list;
  w

let connect src dst = { ep_src = src; ep_dst = dst }

let send_dt_size = function
  | Sd_contig b -> Buf.length b
  | Sd_regions v -> Iov.total v
  | Sd_iov _ -> assert false (* converted on entry *)
  | Sd_generic g -> g.sg_packed_size

let recv_dt_capacity = function
  | Rd_contig b -> Buf.length b
  | Rd_regions v -> Iov.total v
  | Rd_iov _ -> assert false (* converted on entry *)
  | Rd_generic g -> g.rg_capacity

(* --- cost helpers --- *)

let link c = c.config.link
let cpu c = c.config.cpu

(* Per-entry scatter/gather setup of an iov descriptor; nothing for
   the others. *)
let[@inline] iov_cost c (dt : send_dt) =
  match dt with
  | Sd_regions v ->
      let l = link c in
      let entries = Iov.count v in
      let chunks = (entries + l.iov_max_entries - 1) / l.iov_max_entries in
      (float_of_int entries *. l.iov_entry_ns)
      +. (float_of_int (max 0 (chunks - 1)) *. l.per_msg_overhead_ns)
  | Sd_contig _ | Sd_iov _ | Sd_generic _ -> 0.

(* Sender CPU to stage a descriptor.  A generic pack stages through
   [alloc] bytes of bounce buffer: the whole message for eager, one
   reused [frag_size] fragment for a pipelined rendezvous, and each of
   its [frags] took one pack callback.  The NIC reads contig and iov
   descriptors in place. *)
let[@inline] staging_cpu ctx (dt : send_dt) ~alloc frags =
  match dt with
  | Sd_generic g ->
      let c = cpu ctx in
      Config.alloc_time c alloc
      +. Config.memcpy_time c g.sg_packed_size
      +. (float_of_int (List.length frags) *. c.pack_cb_overhead_ns)
      +. g.sg_overhead_ns
  | Sd_contig _ | Sd_iov _ | Sd_regions _ -> 0.

(* Topology-aware path costs.  Every timing site that moves message
   payload (or a control message standing in for one) between two
   workers goes through these two helpers, so eager, rendezvous and
   retransmitted traffic all route over the same links and congestion
   composes with faults.  With no topology attached, both reduce
   exactly to the flat formulas — [latency_ns] and [wire_time] — so
   default-topology runs are bit-identical to the pre-topology
   engine. *)
let path_latency c ~src ~dst =
  match c.topology with
  | None -> (link c).latency_ns
  | Some topo -> Topology.path_latency topo ~latency_ns:(link c).latency_ns ~src ~dst

let path_serialize c ~src ~dst bytes =
  match c.topology with
  | None -> Config.wire_time (link c) bytes
  | Some topo ->
      Topology.serialize topo ~ns_per_byte:(link c).ns_per_byte ~src ~dst
        ~bytes ~now:(Engine.now c.engine)

(* --- fragment-wise generic packing (executes the callbacks) --- *)

(* Pack the whole stream into [slot], a slot of the context's slabs
   taken by the caller, handing its [frag_size] windows to the pack
   callbacks in turn.  The one place pack callbacks run: the stream
   counts as one copy, and [sg_finish] runs exactly once whether it
   completes or a callback fails partway through.  Returns the slot's
   views cut at the pack boundaries, one per callback. *)
let pack_fragments ctx (g : send_generic) slot =
  let frag_size = (link ctx).frag_size in
  let total = g.sg_packed_size in
  let frags = ref [] in
  let off = ref 0 in
  match
    while !off < total do
      let want = min frag_size (total - !off) in
      let dst = if want = total then slot else Buf.sub slot ~pos:!off ~len:want in
      let used = g.sg_pack ~offset:!off ~dst in
      Stats.incr ctx.stats Pack_callbacks;
      (* Contract (paper Listing 4): while the stream is not exhausted a
         pack callback must produce 0 < n <= length dst.  A zero/negative
         return would loop forever; a long return would claim bytes that
         were never written and silently corrupt the packed stream. *)
      if used <= 0 || used > want then
        raise (Callback_error (-1))
      else begin
        frags := (if used = want then dst else Buf.sub dst ~pos:0 ~len:used) :: !frags;
        off := !off + used
      end
    done
  with
  | () ->
      g.sg_finish ();
      Stats.record_copy ctx.stats total;
      List.rev !frags
  | exception exn ->
      g.sg_finish ();
      raise exn

(* Unpack a list of fragments through the receive callbacks, then
   release the descriptor.  A failing callback leaves the release to
   whoever catches it ([refuse_recv], [rndv_failed]). *)
let unpack_fragments ctx (g : recv_generic) frags =
  let off = ref 0 in
  List.iter
    (fun frag ->
      let used = g.rg_unpack ~offset:!off ~src:frag in
      Stats.incr ctx.stats Unpack_callbacks;
      (* Contract (mirror of the pack-side check): a delivered fragment
         lies wholly inside the packed stream, so the callback must
         consume exactly its length — anything else means receiver state
         has silently diverged from the wire stream. *)
      if used <> Buf.length frag then raise (Callback_error (-2));
      off := !off + Buf.length frag)
    frags;
  g.rg_finish ()

(* Receiver CPU to copy [total] landed bytes into place; nothing when
   the stream landed there zero-copy. *)
let[@inline] copy_cpu ctx ~zcopy total =
  if zcopy then 0.
  else begin
    Stats.record_copy ctx.stats total;
    Config.memcpy_time (cpu ctx) total
  end

(* Deliver packed fragments into a receive descriptor.  Returns the
   receiver CPU time consumed.  [zcopy] says contiguous and iov
   receivers take the stream in place (every rendezvous); a generic
   receiver always copies through its unpack callbacks.  The fragments
   stay their holder's. *)
let deposit ctx (dt : recv_dt) frags ~zcopy =
  let total = List.fold_left (fun a b -> a + Buf.length b) 0 frags in
  match dt with
  | Rd_contig b ->
      (match frags with
      | [ f ] ->
          (* one fragment (every eager message): a single copy *)
          Buf.blit ~src:f ~src_pos:0 ~dst:b ~dst_pos:0 ~len:(Buf.length f)
      | _ -> Iov.gather (Iov.of_list frags) ~dst:b);
      copy_cpu ctx ~zcopy total
  | Rd_regions v ->
      Iov.blit ~src:(Iov.of_list frags) ~dst:v;
      copy_cpu ctx ~zcopy total
  | Rd_iov _ -> assert false (* converted on entry *)
  | Rd_generic g ->
      let ncb = List.length frags in
      unpack_fragments ctx g frags;
      copy_cpu ctx ~zcopy:false total
      +. (float_of_int ncb *. (cpu ctx).pack_cb_overhead_ns)
      +. g.rg_overhead_ns

(* Deposit an eager snapshot, as [deposit] would its one fragment. *)
let land_snapshot ctx (dt : recv_dt) data =
  match dt with
  | Rd_contig b ->
      Buf.blit ~src:data ~src_pos:0 ~dst:b ~dst_pos:0 ~len:(Buf.length data);
      copy_cpu ctx ~zcopy:false (Buf.length data)
  | Rd_iov _ | Rd_regions _ | Rd_generic _ -> deposit ctx dt [ data ] ~zcopy:false

(* A message has ended (landed, refused, truncated or failed): nothing
   reads its slot any more. *)
let release ctx env = Buf.Slabs.give ctx.slabs env.e_data

(* --- matching --- *)

let tag_matches ~tag ~mask env_tag = env_tag land mask = tag land mask

let is_completed (req : request) = req.r_status != pending

let complete req status =
  if is_completed req then invalid_arg "Ucx: request already complete";
  req.r_status <- status;
  Engine.wake waiter_slot req status

(* Fault paths can race a completion against a timeout timer; whichever
   fires second must not complete the request twice. *)
let complete_if_pending req status =
  if not (is_completed req) then complete req status


(* --- the two match queues, linked through their entries --- *)

type ('q, 'a) links = {
  nil : 'a;
  next : 'a -> 'a;
  set_next : 'a -> 'a -> unit;
  head : 'q -> 'a;
  set_head : 'q -> 'a -> unit;
  last : 'q -> 'a;
  set_last : 'q -> 'a -> unit;
}

let posted =
  { nil = no_request; next = (fun r -> r.r_next); set_next = (fun r n -> r.r_next <- n);
    head = (fun w -> w.posted); set_head = (fun w r -> w.posted <- r);
    last = (fun w -> w.posted_last); set_last = (fun w r -> w.posted_last <- r) }

let unexpected =
  { nil = no_env; next = (fun e -> e.e_next); set_next = (fun e n -> e.e_next <- n);
    head = (fun w -> w.unexpected); set_head = (fun w e -> w.unexpected <- e);
    last = (fun w -> w.unexpected_last); set_last = (fun w e -> w.unexpected_last <- e) }

let peekers =
  { nil = no_prober; next = (fun p -> p.pb_next); set_next = (fun p n -> p.pb_next <- n);
    head = (fun q -> q.peekers); set_head = (fun q p -> q.peekers <- p);
    last = (fun q -> q.peekers_last); set_last = (fun q p -> q.peekers_last <- p) }

let takers =
  { peekers with
    head = (fun q -> q.takers); set_head = (fun q p -> q.takers <- p);
    last = (fun q -> q.takers_last); set_last = (fun q p -> q.takers_last <- p) }

let push l w x =
  if l.head w == l.nil then l.set_head w x else l.set_next (l.last w) x;
  l.set_last w x;
  l.set_next x l.nil

(* Unlink the entry [x], which follows [prev] ([l.nil] at the head). *)
let unlink l w prev x =
  if prev == l.nil then l.set_head w (l.next x) else l.set_next prev (l.next x);
  if l.last w == x then l.set_last w prev;
  l.set_next x l.nil

(* Unlink and return the oldest entry [x] with [hit arg x], searching
   from [x] (after [prev]); [l.nil] if none. *)
let rec take_from l w hit arg prev x =
  if x == l.nil then x
  else if hit arg x then begin
    unlink l w prev x;
    x
  end
  else take_from l w hit arg x (l.next x)

let take l w hit arg = take_from l w hit arg l.nil (l.head w)

let rec find l hit arg x = if x == l.nil || hit arg x then x else find l hit arg (l.next x)
let rec length l x n = if x == l.nil then n else length l (l.next x) (n + 1)
let matches_env env (pr : request) = tag_matches ~tag:pr.r_tag ~mask:pr.r_mask env.e_tag
let matches_req (pr : request) env = matches_env env pr

(* --- reliable delivery (engaged only when a fault plan is attached) ---

   With a fault plan attached the wire is lossy, so payload and control
   streams move through a stop-and-wait-per-fragment protocol: the
   stream is cut into [frag_size] wire fragments, each carrying a
   sequence number and (on checksummed paths) a CRC32; the receiver
   acks the window cumulatively, nacks CRC mismatches, and suppresses
   duplicates by sequence number.  The sending fiber sleeps through
   serialization, retransmission timeouts and the final ack round trip,
   so every recovery costs virtual time and shows up in [Stats]/[Obs].
   Both endpoints live in one address space, so the receiver half of
   the state machine is evaluated inline at each fragment's modeled
   arrival time — the virtual clock still charges both directions. *)

(* One fault event: its [Stats] counter always, its ["fault"] instant
   when observed. *)
let fault ctx counter ~track ~time name args =
  Stats.incr ctx.stats counter;
  if obs_on ctx then Obs.instant ctx.obs ~time ~track ~cat:"fault" ~args name

(* Per-rank straggler slowdown: multiplies every CPU cost (posting
   overhead, pack, unpack, staging) charged to [rank].  Exactly [1.]
   without a plan or for non-stragglers, so the fault-free path is
   bit-identical ([x *. 1. = x] in IEEE arithmetic). *)
let straggle ctx rank =
  match ctx.faults with
  | None -> 1.
  | Some fr -> Fault.straggle_factor (Fault.plan fr) ~rank

(* --- process-failure detection and operation cancellation ---

   A crashed rank is *declared* failed either by the heartbeat detector
   (a fiber walking the plan's crash schedule at heartbeat granularity)
   or piggybacked on normal traffic (retry exhaustion against a crashed
   peer).  Declaration is idempotent; listeners installed by the upper
   layer cancel the victims' pending operations so nothing waits on a
   dead rank forever. *)

(* Release the callback state held by an aborted send descriptor.  The
   paper's serialization contract promises the application's [free]
   (here [sg_finish]) runs exactly once per started send, even when the
   transfer never moves data. *)
let dispose_send_dt = function
  | Sd_generic g -> g.sg_finish ()
  | Sd_contig _ | Sd_iov _ | Sd_regions _ -> ()

let dispose_rndv (r : rndv) =
  if not r.r_done then begin
    r.r_done <- true;
    dispose_send_dt r.r_dt
  end

(* Release what a withdrawn envelope holds of its send descriptor. *)
let dispose_payload env =
  match env.e_payload with
  | P_rndv r -> dispose_rndv r
  | P_eager | P_frags _ | P_nack _ -> ()

let dispose_recv_dt = function
  | Rd_generic g -> g.rg_finish ()
  | Rd_contig _ | Rd_iov _ | Rd_regions _ -> ()

let is_failed ctx ~rank = Hashtbl.mem ctx.failed rank
let any_failures ctx = ctx.any_failed

let failed_ranks ctx =
  Hashtbl.fold (fun r _ acc -> r :: acc) ctx.failed []
  |> List.sort compare

let on_failure ctx f = ctx.fail_listeners <- f :: ctx.fail_listeners

let notify_failure ctx ~rank =
  if not (Hashtbl.mem ctx.failed rank) then begin
    let now = Engine.now ctx.engine in
    Hashtbl.replace ctx.failed rank now;
    ctx.any_failed <- true;
    fault ctx Failures_detected ~track:rank ~time:now "rank_failed"
      [ ("rank", Obs.Int rank) ];
    (* detection latency relative to the plan's crash instant *)
    (match ctx.faults with
    | Some fr -> (
        match Fault.crash_time (Fault.plan fr) ~rank with
        | Some t0 -> observe ctx "failure_detect_latency_ns" (now -. t0)
        | None -> ())
    | None -> ());
    List.iter (fun f -> f ~rank ~time:now) ctx.fail_listeners
  end

(* A request that is already complete with [error] — what a fail-fast
   operation on a revoked/broken communicator returns. *)
let completed_request ~tag error =
  let req = make_request ~tag ~mask:0 ~peer:(-1) no_recv in
  req.r_status <- { len = 0; tag; error = Some error };
  req

(* Complete a pending request early with [error] and withdraw any
   transport state referring to it (posted receives, queued RTS
   envelopes), releasing descriptor callback state exactly once.
   Returns false if the request had already completed. *)
let try_cancel ctx (req : request) error =
  if is_completed req then false
  else begin
    complete req { len = 0; tag = req.r_tag; error = Some error };
    Stats.incr ctx.stats Ops_cancelled;
    let carries req env =
      match env.e_payload with
      | P_rndv r -> r.r_request == req
      | P_eager | P_frags _ | P_nack _ -> false
    in
    List.iter
      (fun w ->
        if take posted w ( == ) req != no_request then dispose_recv_dt req.r_dt;
        let rec withdraw () =
          let env = take unexpected w carries req in
          if env != no_env then begin
            dispose_payload env;
            withdraw ()
          end
        in
        withdraw ())
      ctx.workers_list;
    true
  end

(* Heartbeat liveness detector: each rank probes its peers every
   [hb_period_ns]; a crashed rank misses the first heartbeat boundary
   after its crash time and is declared failed once the probe and its
   missing reply have had time to cross the link (two latencies).  The
   fiber walks the precomputed crash schedule and exits, so it never
   keeps the engine alive once every crash has been declared. *)
(* A straggler is falsely declared failed when its probe reply cannot
   cross the link within the reply budget of one heartbeat round: reply
   time [factor * 2 * latency] against budget [period + 2 * latency] —
   the classic slow-vs-dead ambiguity of timeout detectors.  Below that
   threshold a straggler is never declared, which the partition /
   straggler test oracles pin. *)
let straggler_declared (l : Config.link) plan (factor : float) =
  factor *. 2. *. l.latency_ns > plan.Fault.hb_period_ns +. (2. *. l.latency_ns)

let detector_events ctx plan =
  let l = link ctx in
  let period = plan.Fault.hb_period_ns in
  List.map
    (fun (rank, t0) ->
      let detect_at =
        ((Float.floor (t0 /. period) +. 1.) *. period) +. (2. *. l.latency_ns)
      in
      (detect_at, rank))
    (Fault.earliest_crashes plan)
  @ List.filter_map
      (fun (rank, factor) ->
        if straggler_declared l plan factor then
          Some (period +. (factor *. 2. *. l.latency_ns), rank)
        else None)
      plan.Fault.stragglers
  |> List.sort compare

let spawn_detector ctx events =
  let e = ctx.engine in
  Engine.spawn e ~name:"fail_detector" (fun () ->
      List.iter
        (fun (detect_at, rank) ->
          let now = Engine.now e in
          if detect_at > now then Engine.sleep e (detect_at -. now);
          notify_failure ctx ~rank)
        events)

let set_faults c p =
  c.faults <- Option.map Fault.start p;
  (* The jitter stream reseeds with the plan so a given (plan, seed)
     replay is deterministic even with jitter enabled.  XOR'd constant:
     keeps it distinct from the fault-decision stream of the same seed. *)
  c.retx_rng <-
    (match p with
    | Some plan when c.config.Config.retx_jitter ->
        Some (Mpicd_simnet.Rng.create (plan.Fault.seed lxor 0x4a69_7474))
    | _ -> None);
  match p with
  | Some plan when plan.Fault.hb_period_ns > 0. -> (
      match detector_events c plan with
      | [] -> ()
      | events -> spawn_detector c events)
  | _ -> ()

(* Install the explorer's probe tap on the attached plan runtime; call
   after [set_faults] (a later [set_faults] replaces the runtime and
   drops the tap).  No-op without a plan. *)
let set_tap c f =
  match c.faults with Some fr -> Fault.set_tap fr f | None -> ()

(* Wire-fragment lengths of a [total]-byte stream; control messages
   (total = 0) still occupy one zero-length fragment. *)
let wire_frag_sizes (l : Config.link) total =
  if total <= 0 then [ 0 ]
  else
    let rec go off acc =
      if off >= total then List.rev acc
      else
        let n = min l.frag_size (total - off) in
        go (off + n) (n :: acc)
    in
    go 0 []

(* Cut a stream into fragment-sized slices (zero-copy subs).  A generic
   receiver unpacks one slice per callback.  The fault-free rendezvous
   hands a contig or iov sender's stream to it whole, in one callback,
   so the two modes' unpack callback counts differ there. *)
let reslice (l : Config.link) stream =
  let total = Buf.length stream in
  let rec go off acc =
    if off >= total then List.rev acc
    else
      let n = min l.frag_size (total - off) in
      go (off + n) (Buf.sub stream ~pos:off ~len:n :: acc)
  in
  go 0 []

type xfer = {
  x_lag : float;
      (* delivery lag: the last fragment lands [x_lag] ns after the
         transfer call returns (its latency + any extra fault delay) *)
  x_unchecked : bool;
      (* a corruption slipped through unchecked, which is only possible
         when [checksum] was false: the zero-copy DMA path *)
}

(* The deterministic backoff sleep before retransmission [attempt + 1]:
   the plan's exponential schedule clamped at the config ceiling, so
   straggler-stretched or large-exponent chains can't balloon (or
   overflow to [infinity]) virtual time.  Pure so tests can pin the
   clamp boundary exactly. *)
let retx_backoff_ns (cfg : Config.t) plan ~attempt =
  Float.min cfg.Config.retx_backoff_max_ns (Fault.rto plan ~attempt)

(* Move a [bytes]-byte stream from [src_id] to [dst_id] under the
   attached fault plan.  Only the stream's length matters: the fates
   decide the timing, and the caller lands the bytes.  Must run in a
   fiber; returns once the last fragment has been serialized (the
   caller schedules delivery [x_lag] later and the cumulative ack one
   link latency after that). *)
let reliable_transfer ctx fr ~mseq ~src_id ~dst_id ~bytes ~checksum =
  let e = ctx.engine in
  let l = link ctx in
  let plan = Fault.plan fr in
  let t_start = Engine.now e in
  let unchecked = ref false in
  let retx = ref 0 in
  let failure = ref None in
  let frag_sizes = wire_frag_sizes l bytes in
  let last_lag = ref (path_latency ctx ~src:src_id ~dst:dst_id) in
  (* decorrelated-jitter state: previous backoff sleep of THIS transfer
     (each transfer de-correlates independently, which is what breaks
     synchronized retry storms across concurrent flows) *)
  let prev_sleep = ref plan.Fault.rto_ns in
  let clamp_ns = ctx.config.Config.retx_backoff_max_ns in
  let backoff_sleep attempt =
    match ctx.retx_rng with
    | None -> retx_backoff_ns ctx.config plan ~attempt
    | Some rng ->
        (* sleep ~ U[rto, min(cap, 3 x previous)], after AWS's
           "decorrelated jitter"; the cap is the ceiling of the
           deterministic exponential schedule so jitter never waits
           longer than the fixed backoff would at retry exhaustion *)
        let base = Float.min clamp_ns plan.Fault.rto_ns in
        let cap = retx_backoff_ns ctx.config plan ~attempt:plan.Fault.max_retries in
        let hi = Float.min cap (Float.max (base +. 1.) (3. *. !prev_sleep)) in
        let s = base +. Mpicd_simnet.Rng.float rng (Float.max 0. (hi -. base)) in
        let s = Float.min clamp_ns s in
        prev_sleep := s;
        Stats.incr ctx.stats Jittered_backoffs;
        s
  in
  let rec send_frag seq len attempt =
    let now = Engine.now e in
    (* link flap: wait for the link to come back up *)
    let up = Fault.up_at plan ~src:src_id ~dst:dst_id ~now in
    if up > now then begin
      fault ctx Flap_waits ~track:src_id ~time:now "link_down"
        [ ("until", Obs.Float up) ];
      Engine.sleep e (up -. now)
    end;
    let now = Engine.now e in
    let dead =
      Fault.crashed_rt fr ~rank:dst_id ~now
      || Fault.crashed_rt fr ~rank:src_id ~now
    in
    (* The fate is always drawn first so the decision stream stays
       aligned whether or not a targeted injection or partition
       overrides it below. *)
    let fate = Fault.fate fr ~src:src_id ~dst:dst_id in
    let injected =
      if attempt = 0 then
        Fault.injected plan ~src:src_id ~dst:dst_id ~mseq ~frag:seq
      else None
    in
    let cut = Fault.partitioned plan ~src:src_id ~dst:dst_id ~now in
    if attempt = 0 then
      Fault.notify_tap fr
        {
          Fault.pb_kind = Fault.Pb_frag;
          pb_src = src_id;
          pb_dst = dst_id;
          pb_mseq = mseq;
          pb_frag = seq;
          pb_len = len;
          pb_time = now;
        };
    let retry cause =
      if attempt >= plan.Fault.max_retries then begin
        fault ctx Delivery_timeouts ~track:src_id ~time:(Engine.now e)
          "delivery_timeout"
          [ ("seq", Obs.Int seq); ("attempts", Obs.Int (attempt + 1)) ];
        let now = Engine.now e in
        failure :=
          Some
            (if Fault.crashed_rt fr ~rank:dst_id ~now then begin
               (* piggybacked detection: exhausting retries against a
                  crashed peer declares it failed without waiting for
                  the heartbeat detector *)
               notify_failure ctx ~rank:dst_id;
               Peer_failed { peer = dst_id }
             end
             else if Fault.crashed_rt fr ~rank:src_id ~now then begin
               notify_failure ctx ~rank:src_id;
               Peer_failed { peer = src_id }
             end
             else
               match cause with
               | `Corrupt -> Data_corrupted
               | `Drop -> Timeout { retries = attempt })
      end
      else begin
        Engine.sleep e (backoff_sleep attempt);
        incr retx;
        fault ctx Retransmits ~track:src_id ~time:(Engine.now e) "retransmit"
          [ ("seq", Obs.Int seq); ("attempt", Obs.Int (attempt + 1)) ];
        send_frag seq len (attempt + 1)
      end
    in
    let f_drop =
      fate.Fault.f_drop
      || (match injected with Some Fault.Inj_drop -> true | _ -> false)
      || (cut && not dead)
    in
    let f_corrupt =
      fate.Fault.f_corrupt
      || match injected with Some Fault.Inj_corrupt -> true | _ -> false
    in
    if Option.is_some injected then begin
      fault ctx Injections_fired ~track:src_id ~time:now "injection"
        [ ("mseq", Obs.Int mseq); ("frag", Obs.Int seq) ]
    end;
    if dead || f_drop then begin
      if cut && not dead && not fate.Fault.f_drop then begin
        fault ctx Partition_drops ~track:src_id ~time:now "partition_drop"
          [ ("seq", Obs.Int seq) ]
      end;
      fault ctx Frags_dropped ~track:src_id ~time:now "frag_drop"
        [ ("seq", Obs.Int seq) ];
      retry `Drop
    end
    else if f_corrupt && checksum && len > 0 then begin
      (* The fragment arrives with one bit flipped.  CRC32 detects every
         single-bit error, so its checksum no longer matches: the
         receiver nacks and the sender retransmits.  The flipped bit is
         still drawn, since the Rng stream decides every later fate. *)
      Stats.incr ctx.stats Frags_corrupted;
      ignore (Fault.corrupt_bit fr ~len : int * int);
      let fly =
        path_serialize ctx ~src:src_id ~dst:dst_id len
        +. path_latency ctx ~src:src_id ~dst:dst_id
        +. fate.Fault.f_delay_ns
      in
      fault ctx Nacks ~track:dst_id ~time:(now +. fly) "nack"
        [ ("seq", Obs.Int seq) ];
      (* wait out the corrupted flight plus the nack's return leg *)
      Engine.sleep e (fly +. path_latency ctx ~src:dst_id ~dst:src_id);
      retry `Corrupt
    end
    else begin
      (* Delivered.  On non-checksummed (zero-copy DMA) paths a corrupt
         fate slips through; the flipped bit is drawn all the same. *)
      if f_corrupt && len > 0 then begin
        ignore (Fault.corrupt_bit fr ~len : int * int);
        unchecked := true;
        fault ctx Frags_corrupted ~track:dst_id ~time:now "frag_corrupt"
          [ ("seq", Obs.Int seq) ]
      end;
      if fate.Fault.f_dup then begin
        (* the second copy is delivered and suppressed by seq number *)
        fault ctx Frags_duplicated ~track:dst_id ~time:now "dup_suppressed"
          [ ("seq", Obs.Int seq) ]
      end;
      (* pipelined serialization: the sender occupies the wire (every
         link of the path, under a topology) for the fragment's
         serialization time; the flight latency overlaps the next
         fragment and is reported as [x_lag] for the last one *)
      Engine.sleep e (path_serialize ctx ~src:src_id ~dst:dst_id len);
      last_lag :=
        path_latency ctx ~src:src_id ~dst:dst_id +. fate.Fault.f_delay_ns
    end
  in
  (let rec loop seq = function
     | [] -> ()
     | len :: rest ->
         send_frag seq len 0;
         if Option.is_none !failure then loop (seq + 1) rest
   in
   loop 0 frag_sizes);
  match !failure with
  | Some err -> Error err
  | None ->
      (* cumulative ack for the whole window *)
      Fault.notify_tap fr
        {
          Fault.pb_kind = Fault.Pb_ack;
          pb_src = src_id;
          pb_dst = dst_id;
          pb_mseq = mseq;
          pb_frag = -1;
          pb_len = bytes;
          pb_time = Engine.now e +. !last_lag;
        };
      fault ctx Acks ~track:dst_id ~time:(Engine.now e +. !last_lag) "ack"
        [ ("bytes", Obs.Int bytes) ];
      if obs_on ctx then
        ignore
          (Obs.span_complete ctx.obs ~track:src_id ~cat:"proto" ~t0:t_start
             ~t1:(Engine.now e +. !last_lag)
             ~args:
               (( "bytes", Obs.Int bytes )
               :: ("frags", Obs.Int (List.length frag_sizes))
               :: ("retx", Obs.Int !retx)
               :: ("dst", Obs.Int dst_id)
               :: (if mseq >= 0 then [ ("mseq", Obs.Int mseq) ] else []))
             "rel_xfer");
      Ok { x_lag = !last_lag; x_unchecked = !unchecked }

let finish_recv e req ~delay status =
  Engine.at e ~delay (fun () -> complete_if_pending req status)

(* End a matched receive that moves no data: release its descriptor
   ([rg_finish]) and complete it with [err] after [delay]. *)
let refuse_recv e (pr : request) ~delay ~tag err =
  dispose_recv_dt pr.r_dt;
  finish_recv e pr ~delay { len = 0; tag; error = Some err }

(* Span arguments naming a message, built only under [obs_on].  Match
   and queue events lead with the source, data phases with the size;
   the trace format keeps both orders. *)
let msg_args env =
  [
    ("src", Obs.Int env.e_src);
    ("bytes", Obs.Int env.e_total);
    ("mseq", Obs.Int env.e_seq);
  ]

let data_args env =
  [
    ("bytes", Obs.Int env.e_total);
    ("src", Obs.Int env.e_src);
    ("mseq", Obs.Int env.e_seq);
  ]

(* --- rendezvous data movement ---

   A matched RTS moves its data in three steps.  Stage materializes the
   send descriptor: the pack callbacks run and the sender's copy is
   counted.  Wire moves the bytes.  Land deposits them into the receive
   descriptor and yields the receiver CPU.  Stage is the same in both
   modes; the fault plan picks the wire step, and the reliable land
   hands a generic receiver one slice per wire fragment.  Whatever slot
   stage took goes back once the transfer ends. *)

(* Stage: from here on the transfer owns the descriptor's disposal.
   Returns the views to land.  Contiguous and iov descriptors are the
   sender's own buffers, read in place: MPI forbids a receive buffer
   that overlaps the pending send buffer of the same message, and the
   sender completes only after the data has landed, so these buffers
   need no copy and never reach the slabs.  A contiguous one is its one
   view; an iov one yields none, and [land_staged] reads its regions.  A
   generic descriptor packs into a slot, and an iov one is gathered into
   a slot (no charged copy: the NIC gathers) where [whole] asks for one
   stream, which only a generic receiver does; the slot becomes
   [env.e_data], released once the transfer ends, failed or not. *)
let stage ctx (env : envelope) (r : rndv) ~whole =
  r.r_done <- true;
  match r.r_dt with
  | Sd_contig b -> [ b ]
  | Sd_regions _ when not whole -> []
  | Sd_regions v ->
      env.e_data <- Buf.Slabs.take ctx.slabs env.e_total;
      Iov.gather v ~dst:env.e_data;
      [ env.e_data ]
  | Sd_iov _ -> assert false (* converted on entry *)
  | Sd_generic g ->
      env.e_data <- Buf.Slabs.take ctx.slabs env.e_total;
      pack_fragments ctx g env.e_data

(* Land what [stage] returned: an iov sender read in place is copied
   into a contiguous or iov receiver run by run, at no charge (the
   stream lands zero-copy); anything else is [deposit]ed. *)
let land_staged ctx (dt : recv_dt) (sdt : send_dt) frags =
  match (sdt, dt, frags) with
  | Sd_regions v, Rd_contig b, [] ->
      Iov.gather v ~dst:b;
      0.
  | Sd_regions v, Rd_regions d, [] ->
      Iov.blit ~src:v ~dst:d;
      0.
  | _ -> deposit ctx dt frags ~zcopy:true

(* A failed rendezvous poisons both sides of the transfer and releases
   the receive descriptor.  The overlapped wire completes the receive
   from a zero-delay event, like every receive that moves no data; the
   reliable wire's fiber completes it at once. *)
let rndv_failed e (pr : request) (env : envelope) (r : rndv) ~deferred err =
  let st = { len = 0; tag = env.e_tag; error = Some err } in
  complete_if_pending r.r_request st;
  if deferred then refuse_recv e pr ~delay:0. ~tag:env.e_tag err
  else begin
    dispose_recv_dt pr.r_dt;
    complete_if_pending pr st
  end

(* The reliable wire's transfer.  Per-fragment CRC32 protects
   bounce-buffer streams (generic pack) and plain contiguous RDMA
   (NIC-level ICRC).  The iov scatter/gather DMA validates only an
   end-to-end digest after the scatter, so its corruption is detected
   too late to nack a fragment: the transfer then falls back, exactly
   once, to the CRC-protected packed path before surfacing an error. *)
let reliable_wire ctx fr w (env : envelope) (dt : send_dt) =
  let e = ctx.engine in
  let c = cpu ctx in
  let size = env.e_total in
  let checksum =
    match dt with Sd_iov _ | Sd_regions _ -> false | Sd_contig _ | Sd_generic _ -> true
  in
  match
    reliable_transfer ctx fr ~mseq:env.e_seq ~src_id:env.e_src ~dst_id:w.id
      ~bytes:size ~checksum
  with
  | Ok x when x.x_unchecked ->
      Engine.sleep e x.x_lag (* the bad data had to land first *);
      fault ctx Iov_fallbacks ~track:w.id ~time:(Engine.now e) "iov_fallback"
        [ ("bytes", Obs.Int size) ];
      (* the retry stages through a packed bounce buffer *)
      Stats.record_copy ctx.stats size;
      Engine.sleep e
        ((Config.alloc_time c size +. Config.memcpy_time c size)
        *. straggle ctx env.e_src);
      reliable_transfer ctx fr ~mseq:env.e_seq ~src_id:env.e_src ~dst_id:w.id
        ~bytes:size ~checksum:true
  | res -> res

(* With no plan, the overlapped wire: the links are reserved at match
   time, before the pack runs, and the transfer takes [handshake + max
   (wire, cpu_send, cpu_recv)] before both sides complete.  With a
   plan, the reliable wire runs in its own fiber because the protocol
   sleeps, and its timing is phase-serial (handshake, stage, wire and
   recovery, land): reliability changes the clock by design.  A failing
   pack or unpack callback fails the transfer in either mode. *)
let rndv_match w (pr : request) (env : envelope) (r : rndv) =
  let ctx = w.ctx in
  let e = ctx.engine in
  let l = link ctx in
  let size = env.e_total in
  let handshake = l.rndv_handshake_ns +. l.rndv_reg_ns in
  let whole =
    match pr.r_dt with Rd_generic _ -> true | Rd_contig _ | Rd_iov _ | Rd_regions _ -> false
  in
  match ctx.faults with
  | None -> (
      let wire = path_serialize ctx ~src:env.e_src ~dst:w.id size +. iov_cost ctx r.r_dt in
      try
        (* a generic receiver unpacks a gathered iov stream in one
           callback *)
        let frags = stage ctx env r ~whole in
        let send_cbs = List.length frags in
        let cpu_send = staging_cpu ctx r.r_dt ~alloc:l.frag_size frags in
        let cpu_recv = land_staged ctx pr.r_dt r.r_dt frags in
        release ctx env;
        let duration = handshake +. Float.max wire (Float.max cpu_send cpu_recv) in
        (* Phase spans for the rendezvous: handshake, then the wire
           transfer overlapped with sender pack and receiver unpack —
           the same decomposition the duration formula above models. *)
        if obs_on ctx then begin
          let t0 = Engine.now e in
          let sp =
            Obs.span_complete ctx.obs ~track:w.id ~cat:"proto" ~t0
              ~t1:(t0 +. duration) ~args:(data_args env) "rndv"
          in
          (* summed from [t0], not [t0 +. handshake]: float addition
             does not associate, and the trace pins these stamps *)
          let hs_end = t0 +. l.rndv_handshake_ns +. l.rndv_reg_ns in
          ignore
            (Obs.span_complete ctx.obs ~track:w.id ~cat:"proto" ~t0 ~t1:hs_end
               ~parent:sp "handshake");
          if wire > 0. then
            ignore
              (Obs.span_complete ctx.obs ~track:env.e_src ~cat:"proto"
                 ~t0:hs_end ~t1:(hs_end +. wire)
                 ~args:[ ("bytes", Obs.Int size) ]
                 ~parent:sp "wire");
          if cpu_send > 0. then begin
            let sp_pack =
              Obs.span_complete ctx.obs ~track:env.e_src ~cat:"proto" ~t0:hs_end
                ~t1:(hs_end +. cpu_send) ~parent:sp "pack"
            in
            Obs.tile_callbacks ctx.obs ~track:env.e_src ~t0:hs_end
              ~t1:(hs_end +. cpu_send) ~n:send_cbs ~name:"pack_cb"
              ~hist:"pack_cb_ns" ~parent:sp_pack
          end;
          if cpu_recv > 0. then begin
            let sp_un =
              Obs.span_complete ctx.obs ~track:w.id ~cat:"proto" ~t0:hs_end
                ~t1:(hs_end +. cpu_recv) ~parent:sp "unpack"
            in
            match pr.r_dt with
            | Rd_generic _ ->
                Obs.tile_callbacks ctx.obs ~track:w.id ~t0:hs_end
                  ~t1:(hs_end +. cpu_recv) ~n:(List.length frags)
                  ~name:"unpack_cb" ~hist:"unpack_cb_ns" ~parent:sp_un
            | Rd_contig _ | Rd_iov _ | Rd_regions _ -> ()
          end;
          observe ctx "msg_latency_ns_rndv" (t0 +. duration -. env.e_sent_at)
        end;
        let ok = { len = size; tag = env.e_tag; error = None } in
        Engine.at e ~delay:duration (fun () ->
            complete_if_pending r.r_request ok;
            complete_if_pending pr ok)
      with Callback_error code ->
        release ctx env;
        rndv_failed e pr env r ~deferred:true (Callback_failed code))
  | Some fr ->
      Engine.spawn e ~name:"rel_rndv" ~track:env.e_src (fun () ->
          Engine.sleep e handshake;
          try
            let frags = stage ctx env r ~whole in
            let cpu_send =
              (staging_cpu ctx r.r_dt ~alloc:l.frag_size frags
              +. iov_cost ctx r.r_dt)
              *. straggle ctx env.e_src
            in
            Engine.sleep e cpu_send;
            match reliable_wire ctx fr w env r.r_dt with
            | Error err ->
                release ctx env;
                rndv_failed e pr env r ~deferred:false err
            | Ok x ->
                Engine.sleep e x.x_lag (* data lands *);
                let landed =
                  if not whole then frags
                  else
                    match r.r_dt with
                    | Sd_contig b -> reslice l b
                    | Sd_iov _ | Sd_regions _ | Sd_generic _ -> reslice l env.e_data
                in
                let cpu_recv = land_staged ctx pr.r_dt r.r_dt landed in
                release ctx env;
                Engine.sleep e (cpu_recv *. straggle ctx w.id);
                let ok = { len = size; tag = env.e_tag; error = None } in
                complete_if_pending pr ok;
                (* the sender completes when the final ack crosses back *)
                Engine.at e ~delay:(path_latency ctx ~src:w.id ~dst:env.e_src)
                  (fun () -> complete_if_pending r.r_request ok)
          with Callback_error code ->
            release ctx env;
            rndv_failed e pr env r ~deferred:false (Callback_failed code))

(* Process a matched (posted, envelope) pair at the current virtual
   time.  All data movement happens here; completions are scheduled
   after the modeled processing delay. *)
let process_match w (pr : request) (env : envelope) =
  let ctx = w.ctx in
  let e = ctx.engine in
  env.e_matched <- true;
  pr.r_seq <- env.e_seq;
  let capacity = recv_dt_capacity pr.r_dt in
  (* How long the envelope sat in the unexpected queue before a
     matching receive arrived. *)
  if not (Float.is_nan env.e_queued_at) then
    observe ctx "unexpected_residency_ns" (Engine.now e -. env.e_queued_at);
  if env.e_total > capacity then begin
    if obs_on ctx then
      Obs.instant ctx.obs ~time:(Engine.now e) ~track:w.id ~cat:"proto"
        ~args:[ ("expected", Obs.Int env.e_total); ("capacity", Obs.Int capacity) ]
        "truncated";
    (* Truncation: no data is delivered; sender completes normally
       (it either already did, for eager, or completes now).  The data
       never moves, so the send descriptor is disposed here, and the
       bytes an unexpected eager message buffered are freed. *)
    (match env.e_payload with
    | P_eager | P_frags _ ->
        Stats.record_free ctx.stats env.e_unexpected_alloc;
        release ctx env
    | P_nack _ -> ()
    | P_rndv r ->
        dispose_rndv r;
        complete_if_pending r.r_request
          { len = env.e_total; tag = env.e_tag; error = None });
    refuse_recv e pr ~delay:0. ~tag:env.e_tag
      (Truncated { expected = env.e_total; capacity })
  end
  else
    match env.e_payload with
    | P_nack err ->
        (* Poison envelope: the sender's transfer failed after the
           receive was (or would be) matched; complete the receive with
           the sender-side error instead of leaving it pending. *)
        refuse_recv e pr ~delay:0. ~tag:env.e_tag err
    | P_rndv r -> rndv_match w pr env r
    | (P_eager | P_frags _) as payload -> (
        (* Data already arrived in bounce buffers; receiver copies or
           unpacks it into place.  If it sat in the unexpected queue we
           also pay the allocation that buffered it. *)
        let alloc_delay =
          if env.e_unexpected_alloc > 0 then begin
            Stats.record_free ctx.stats env.e_unexpected_alloc;
            Config.alloc_time (cpu ctx) env.e_unexpected_alloc
          end
          else 0.
        in
        match
          match payload with
          | P_frags frags -> deposit ctx pr.r_dt frags ~zcopy:false
          | _ -> land_snapshot ctx pr.r_dt env.e_data
        with
        | cpu_time ->
            release ctx env;
            let sf = straggle ctx w.id in
            let alloc_delay = alloc_delay *. sf in
            let cpu_time = cpu_time *. sf in
            let delay = alloc_delay +. cpu_time in
            if obs_on ctx then begin
              let t0 = Engine.now e in
              if delay > 0. then begin
                let sp =
                  Obs.span_complete ctx.obs ~track:w.id ~cat:"proto" ~t0
                    ~t1:(t0 +. delay) ~args:(data_args env) "unpack"
                in
                match pr.r_dt with
                | Rd_generic _ ->
                    let n = match payload with P_frags f -> List.length f | _ -> 1 in
                    Obs.tile_callbacks ctx.obs ~track:w.id ~t0:(t0 +. alloc_delay)
                      ~t1:(t0 +. delay) ~n ~name:"unpack_cb"
                      ~hist:"unpack_cb_ns" ~parent:sp
                | Rd_contig _ | Rd_iov _ | Rd_regions _ -> ()
              end;
              observe ctx "msg_latency_ns_eager" (t0 +. delay -. env.e_sent_at)
            end;
            finish_recv e pr ~delay
              { len = env.e_total; tag = env.e_tag; error = None }
        | exception Callback_error code ->
            (* the callbacks are done with the bytes, failed or not *)
            release ctx env;
            refuse_recv e pr ~delay:alloc_delay ~tag:env.e_tag (Callback_failed code))

(* The "match" instant: every joined message gets one, whether a
   posted receive or the unexpected queue supplied its partner. *)
let match_instant w env =
  if obs_on w.ctx then
    Obs.instant w.ctx.obs ~time:(Engine.now w.ctx.engine) ~track:w.id
      ~cat:"proto" ~args:(msg_args env) "match"

let probe_info env =
  { p_tag = env.e_tag; p_len = env.e_total; p_src_worker = env.e_src }

let prober_hits env p = tag_matches ~tag:p.pb_tag ~mask:p.pb_mask env.e_tag

(* Unlink and wake every peeker from [p] on (after [prev]) that [env]
   matches, in blocking order. *)
let rec wake_peekers q env prev p =
  if p != no_prober then begin
    let next = p.pb_next in
    if prober_hits env p then begin
      unlink peekers q prev p;
      Engine.wake prober_slot p env;
      wake_peekers q env prev next
    end
    else wake_peekers q env p next
  end

(* Wake the blocked probes [env], just queued as unexpected, matches:
   every peeker, then the oldest matching taker, which dequeues it. *)
let wake_probers w env =
  let q = w.probes in
  wake_peekers q env no_prober q.peekers;
  let p = take takers q prober_hits env in
  if p != no_prober then begin
    ignore (take unexpected w ( == ) env);
    Engine.wake prober_slot p env
  end

(* Match a new envelope against posted receives / probe waiters;
   otherwise queue it as unexpected. *)
let deliver w env =
  let pr = take posted w matches_env env in
  if pr != no_request then begin
    match_instant w env;
    process_match w pr env
  end
  else begin
    (* Buffer it.  Eager payloads consume receiver memory. *)
    (match env.e_payload with
    | P_eager | P_frags _ ->
        env.e_unexpected_alloc <- env.e_total;
        Stats.record_alloc w.ctx.stats env.e_total
    | P_rndv _ | P_nack _ -> ());
    env.e_queued_at <- Engine.now w.ctx.engine;
    push unexpected w env;
    if obs_on w.ctx then begin
      let mx = Obs.metrics w.ctx.obs in
      Obs.instant w.ctx.obs ~time:env.e_queued_at ~track:w.id ~cat:"proto"
        ~args:(msg_args env) "unexpected";
      Metrics.inc (Metrics.counter mx "unexpected_total");
      Metrics.set
        (Metrics.gauge mx (Printf.sprintf "unexpected_depth.w%d" w.id))
        (float_of_int (length unexpected w.unexpected 0))
    end;
    if w.probes != no_probes then wake_probers w env
  end

(* Schedule envelope arrival over the link, preserving per-channel
   FIFO ordering. *)
let ship src dst ~after env =
  let ctx = src.ctx in
  let e = ctx.engine in
  let jitter = match ctx.jitter with None -> 0. | Some f -> f () in
  let ch = ctx.channels in
  let i = chan_index ch (channel_key ~src:src.id ~dst:dst.id) in
  let arrival = Float.max (Engine.now e +. after +. jitter) (Float.Array.get ch.at i) in
  Float.Array.set ch.at i arrival;
  if obs_on ctx then begin
    (* Eager payload bytes ride this delivery; a rendezvous only ships
       its RTS control message here (data moves at match time). *)
    let name =
      match env.e_payload with
      | P_eager | P_frags _ -> "wire"
      | P_rndv _ -> "rts"
      | P_nack _ -> "nack"
    in
    ignore
      (Obs.span_complete ctx.obs ~track:src.id ~cat:"proto"
         ~t0:(Engine.now e) ~t1:arrival
         ~args:
           [
             ("dst", Obs.Int dst.id);
             ("bytes", Obs.Int env.e_total);
             ("mseq", Obs.Int env.e_seq);
           ]
         name)
  end;
  Engine.at e ~delay:(arrival -. Engine.now e) (fun () -> deliver dst env)

(* A new envelope from [src], stamped now. *)
let envelope src ~tag ~total ~seq ~data payload =
  {
    e_tag = tag;
    e_total = total;
    e_src = src.id;
    e_seq = seq;
    e_payload = payload;
    e_data = data;
    e_unexpected_alloc = 0;
    e_sent_at = Engine.now src.ctx.engine;
    e_queued_at = Float.nan;
    e_matched = false;
    e_next = no_env;
  }

(* A poison envelope: tells [dst] that a send of [tag] failed, so a
   receive posted for it completes with the error. *)
let ship_nack src dst ~tag ~seq err =
  ship src dst ~after:(path_latency src.ctx ~src:src.id ~dst:dst.id)
    (envelope src ~tag ~total:0 ~seq ~data:no_data (P_nack err))

(* Fault-mode RTS shipping: the rendezvous control message itself
   traverses the reliable protocol (it can be dropped and
   retransmitted), and an optional handshake timer abandons the send if
   no matching receive turns up in time. *)
let ship_rts_reliable src dst fr (env : envelope) (req : request) =
  let ctx = src.ctx in
  let e = ctx.engine in
  let plan = Fault.plan fr in
  Engine.spawn e ~name:"rel_rts" ~track:src.id (fun () ->
      match
        reliable_transfer ctx fr ~mseq:env.e_seq ~src_id:src.id
          ~dst_id:dst.id ~bytes:0 ~checksum:true
      with
      | Ok x ->
          ship src dst ~after:x.x_lag env;
          if plan.Fault.rndv_timeout_ns > 0. then
            Engine.at e ~delay:(x.x_lag +. plan.Fault.rndv_timeout_ns)
              (fun () ->
                if (not env.e_matched) && not (is_completed req) then begin
                  fault ctx Delivery_timeouts ~track:src.id ~time:(Engine.now e)
                    "rndv_timeout"
                    [ ("dst", Obs.Int dst.id) ];
                  (* withdraw the RTS so a late receive cannot match it,
                     and release the send-descriptor state it carried *)
                  ignore (take unexpected dst ( == ) env);
                  dispose_payload env;
                  complete req
                    {
                      len = 0;
                      tag = env.e_tag;
                      error = Some (Timeout { retries = 0 });
                    }
                end)
      | Error err ->
          (* the RTS never arrived: the data never moves either *)
          dispose_payload env;
          complete_if_pending req { len = 0; tag = env.e_tag; error = Some err };
          (* poison the receiver so a posted receive completes too *)
          ship_nack src dst ~tag:env.e_tag ~seq:env.e_seq err)

(* Ship a rendezvous send's RTS: only the control message travels now;
   the data moves at match time. *)
let ship_rts src dst ~tag ~total ~seq dt req =
  let env =
    envelope src ~tag ~total ~seq ~data:no_data
      (P_rndv { r_dt = dt; r_request = req; r_done = false })
  in
  match src.ctx.faults with
  | None ->
      ship src dst ~after:(path_latency src.ctx ~src:src.id ~dst:dst.id) env
  | Some fr -> ship_rts_reliable src dst fr env req

let tag_send_from src ~dst ~tag dt =
  let dt = regions_send dt in
  let ctx = src.ctx in
  let e = ctx.engine in
  let l = link ctx in
  let req = make_request ~tag ~mask:0 ~peer:dst.id no_recv in
  (* Allocate the message sequence number unconditionally (not only when
     a sink is attached) so attaching observability never changes any
     program-visible state. *)
  let mseq = ctx.next_mseq in
  ctx.next_mseq <- mseq + 1;
  req.r_seq <- mseq;
  Engine.sleep e (l.per_msg_overhead_ns *. straggle ctx src.id);
  let total = send_dt_size dt in
  (match dt with
  | Sd_regions v ->
      (* iovec path: always a single zero-copy rendezvous-style
         transfer; never switches protocol with size. *)
      let entries = Iov.count v in
      Stats.record_message ctx.stats ~eager:false ~wire_bytes:total;
      Stats.add ctx.stats Iov_entries entries;
      observe ctx "msg_bytes_iov" (float_of_int total);
      ship_rts src dst ~tag ~total ~seq:mseq dt req
  | Sd_iov _ -> assert false (* converted above *)
  | Sd_contig _ | Sd_generic _ ->
      if total <= l.eager_limit then begin
        (* Eager: snapshot or pack into one slot synchronously, then
           fire and forget.  eager-zcopy: the NIC reads the registered
           user buffer directly; the snapshot exists only so the
           simulated sender may reuse its buffer immediately.  Under a
           plan the slot is also the reliable stream. *)
        let data = Buf.Slabs.take ctx.slabs total in
        match
          match dt with
          | Sd_contig b ->
              Buf.blit ~src:b ~src_pos:0 ~dst:data ~dst_pos:0 ~len:total;
              []
          | Sd_generic g -> pack_fragments ctx g data
          | Sd_iov _ | Sd_regions _ -> assert false
        with
        | frags ->
            let cpu_time = staging_cpu ctx dt ~alloc:total frags *. straggle ctx src.id in
            Engine.sleep e cpu_time;
            Stats.record_message ctx.stats ~eager:true ~wire_bytes:total;
            if obs_on ctx then begin
              observe ctx "msg_bytes_eager" (float_of_int total);
              (* The sleep above charged the pack cost; the span covers
                 exactly that interval. *)
              if cpu_time > 0. then begin
                let t1 = Engine.now e in
                let sp =
                  Obs.span_complete ctx.obs ~track:src.id ~cat:"proto"
                    ~t0:(t1 -. cpu_time) ~t1
                    ~args:
                      [
                        ("bytes", Obs.Int total);
                        ("dst", Obs.Int dst.id);
                        ("mseq", Obs.Int mseq);
                      ]
                    "pack"
                in
                Obs.tile_callbacks ctx.obs ~track:src.id ~t0:(t1 -. cpu_time) ~t1
                  ~n:(List.length frags) ~name:"pack_cb" ~hist:"pack_cb_ns" ~parent:sp
              end
            end;
            (match ctx.faults with
            | None ->
                let env =
                  envelope src ~tag ~total ~seq:mseq ~data
                    (match dt with
                    | Sd_contig _ -> P_eager
                    | Sd_generic _ | Sd_iov _ | Sd_regions _ -> P_frags frags)
                in
                ship src dst
                  ~after:
                    (path_latency ctx ~src:src.id ~dst:dst.id
                    +. path_serialize ctx ~src:src.id ~dst:dst.id
                         total)
                  env;
                complete_if_pending req { len = total; tag; error = None }
            | Some fr ->
                (* Reliable eager: fragments traverse the protocol and
                   the send completes only at the final ack, so retry
                   exhaustion can surface Timeout to the sender. *)
                Engine.spawn e ~name:"rel_eager" ~track:src.id
                  (fun () ->
                    match
                      reliable_transfer ctx fr ~mseq ~src_id:src.id
                        ~dst_id:dst.id ~bytes:total ~checksum:true
                    with
                    | Ok x ->
                        (* a checked stream lands as sent: the slot,
                           which stays lent until the envelope lands *)
                        ship src dst ~after:x.x_lag
                          (envelope src ~tag ~total ~seq:mseq ~data
                             (P_frags (reslice l data)));
                        Engine.sleep e x.x_lag;
                        complete_if_pending req { len = total; tag; error = None }
                    | Error err ->
                        Buf.Slabs.give ctx.slabs data;
                        complete_if_pending req
                          { len = 0; tag; error = Some err };
                        ship_nack src dst ~tag ~seq:mseq err))
        | exception Callback_error code ->
            Buf.Slabs.give ctx.slabs data;
            let err = Callback_failed code in
            complete_if_pending req { len = 0; tag; error = Some err };
            (* A failed pack must not leave the peer's posted receive
               pending forever: notify it with a poison envelope. *)
            Stats.incr ctx.stats Nacks;
            ship_nack src dst ~tag ~seq:mseq err
      end
      else begin
        (* Rendezvous: only the RTS travels now. *)
        Stats.record_message ctx.stats ~eager:false ~wire_bytes:total;
        observe ctx "msg_bytes_rndv" (float_of_int total);
        ship_rts src dst ~tag ~total ~seq:mseq dt req
      end);
  req

let tag_send ep ~tag dt =
  tag_send_from ep.ep_src ~dst:ep.ep_dst ~tag:(Int64.to_int tag) dt

let post_recv w ~tag ~mask ~peer dt =
  let req = make_request ~tag ~mask ~peer (regions_recv dt) in
  (* Match against the unexpected queue in arrival order. *)
  let env = take unexpected w matches_req req in
  if env != no_env then begin
    match_instant w env;
    process_match w req env
  end
  else begin
    push posted w req;
    if obs_on w.ctx then
      Metrics.set
        (Metrics.gauge (Obs.metrics w.ctx.obs)
           (Printf.sprintf "posted_depth.w%d" w.id))
        (float_of_int (length posted w.posted 0))
  end;
  req

let tag_recv w ~tag ~mask dt =
  post_recv w ~tag:(Int64.to_int tag) ~mask:(Int64.to_int mask) ~peer:(-1) dt

let wait (req : request) =
  if is_completed req then req.r_status else Engine.await waiter_slot req

let wait_any reqs = Engine.await_any waiter_slot reqs

let tag_probe w ~tag ~mask =
  Stats.incr w.ctx.stats Probes;
  let env = find unexpected (fun (tag, mask) env -> tag_matches ~tag ~mask env.e_tag) (tag, mask) w.unexpected in
  if env == no_env then None else Some (probe_info env)

(* Park on a fresh prober queued on [l] until an envelope matches. *)
let block_probe l w ~tag ~mask =
  if w.probes == no_probes then w.probes <- empty_probes ();
  let p = { pb_tag = tag; pb_mask = mask; pb_waiter = Engine.idle; pb_next = no_prober } in
  push l w.probes p;
  Engine.await prober_slot p

let tag_probe_wait w ~tag ~mask =
  match tag_probe w ~tag ~mask with
  | Some info -> info
  | None -> probe_info (block_probe peekers w ~tag ~mask)

let tag_mprobe_wait w ~tag ~mask =
  Stats.incr w.ctx.stats Probes;
  let env = take unexpected w (fun (tag, mask) env -> tag_matches ~tag ~mask env.e_tag) (tag, mask) in
  let env = if env == no_env then block_probe takers w ~tag ~mask else env in
  (probe_info env, env)

let msg_recv w (env : message) dt =
  let req = make_request ~tag:env.e_tag ~mask:(-1) ~peer:env.e_src (regions_recv dt) in
  process_match w req env;
  req

let peek (req : request) = if is_completed req then Some req.r_status else None
let set_owner (req : request) o = req.r_owner <- o
let set_link (req : request) next = req.r_link <- next
