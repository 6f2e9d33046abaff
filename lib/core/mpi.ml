module Buf = Mpicd_buf.Buf
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Rng = Mpicd_simnet.Rng
module Topology = Mpicd_simnet.Topology
module Datatype = Mpicd_datatype.Datatype
module Plan = Mpicd_datatype.Plan
module Ucx = Mpicd_ucx.Ucx
module Obs = Mpicd_obs.Obs
module Metrics = Mpicd_obs.Metrics

(* Observation layer for the communication checkers: every monitored
   point-to-point operation is recorded at post time together with a
   [peek] closure that reads its transport-level completion status.  The
   analyzers in Mpicd_check replay MPI matching semantics over these
   records (MUST-style), so the monitor itself stays passive: it never
   perturbs matching, timing, or data movement. *)
module Monitor = struct
  type op_kind = Send | Recv
  type dt_class = Dc_bytes | Dc_typed | Dc_custom

  type op = {
    id : int;
    kind : op_kind;
    rank : int;
    peer : int;
    tag : int;
    cid : int;
    channel_kind : int;
    dt_class : dt_class;
    signature : (Datatype.predefined * int) list;
    nbytes : int;
    blocking : bool;
    posted_at : float;
  }

  type outcome = {
    o_op : op;
    o_peer : int;
    o_tag : int;
    o_len : int;
    o_error : string option;
  }

  type entry = {
    e_op : op;
    e_peek : unit -> outcome option;
    mutable e_done : outcome option;
  }

  type t = { mutable next_id : int; mutable entries : entry list (* newest first *) }

  let create () = { next_id = 0; entries = [] }

  let fresh_id m =
    let id = m.next_id in
    m.next_id <- id + 1;
    id

  let add m op peek = m.entries <- { e_op = op; e_peek = peek; e_done = None } :: m.entries

  let sweep m =
    List.iter
      (fun e -> if e.e_done = None then e.e_done <- e.e_peek ())
      m.entries

  let outcomes m =
    sweep m;
    List.rev (List.filter_map (fun e -> e.e_done) m.entries)

  let pending m =
    sweep m;
    List.rev
      (List.filter_map
         (fun e -> if e.e_done = None then Some e.e_op else None)
         m.entries)

  (* RLE signature helpers: concatenation and repetition that keep the
     run-length encoding canonical (no two adjacent runs share a type). *)
  let rle_concat a b =
    match (List.rev a, b) with
    | (p, n) :: ra, (q, m) :: rb when p = q -> List.rev_append ra ((p, n + m) :: rb)
    | _ -> a @ b

  let rle_repeat s count =
    if count <= 0 then []
    else
      match s with
      | [] -> []
      | [ (p, n) ] -> [ (p, n * count) ]
      | _ ->
          let rec go acc k = if k = 0 then acc else go (rle_concat acc s) (k - 1) in
          go s (count - 1)
end

type error = Ucx.error =
  | Truncated of { expected : int; capacity : int }
  | Callback_failed of int
  | Timeout of { retries : int }
  | Peer_failed of { peer : int }
  | Data_corrupted
  | Revoked

exception Mpi_error of error

(* MPI-style per-communicator error handling: raise (the default,
   MPI_ERRORS_ARE_FATAL in spirit but catchable), abort the rank, or
   return a degraded status and stash the error (MPI_ERRORS_RETURN). *)
type errhandler = Errors_raise | Errors_abort | Errors_return

exception Aborted of { rank : int; error : error }

(* Shared-state slot for the fault-tolerant agreement protocol behind
   [comm_agree] and [comm_shrink].  Each participant folds its
   contribution in and the slot completes once every group member has
   either contributed or been declared failed — so the death of a
   participant can never block the survivors. *)
type agree_slot = {
  s_group : int array;  (* comm rank -> world rank *)
  s_combine : int -> int -> int;
  s_shrink : bool;  (* completion allocates a cid and a survivor set *)
  mutable s_acc : int;  (* combined agreed value *)
  s_ack_acc : Bitset.t;
      (* intersection of the contributors' acknowledged-failure sets: a
         failed non-contributor raises [Peer_failed] at every caller
         unless every contributor had acknowledged it — an agreed,
         hence uniform, verdict (cf. ULFM MPI_Comm_agree) *)
  s_failed : Bitset.t;
      (* shrink only: union of the contributors' observed-failure sets;
         completion excludes these ranks from the survivor set *)
  s_contrib : Bitset.t;  (* comm ranks that contributed *)
  mutable s_result : int option;
      (* combined value; [s_contrib]/[s_ack_acc] are frozen once set
         (late contributors take the completed branch and never
         mutate them) *)
  mutable s_new_cid : int;  (* shrink only; -1 until completion *)
  mutable s_survivors : int array;  (* shrink only; comm ranks, at completion *)
  mutable s_waiters : int Engine.Ivar.t list;
      (* one cell per blocked caller, newest first, and filled in that
         order: the order decides virtual time *)
}

type status = { source : int; tag : int; len : int }

type world = {
  engine : Engine.t;
  config : Config.t;
  stats : Stats.t;
  ucx : Ucx.context;
  workers : Ucx.worker array;
  world_group : int array;
      (* the identity group of the world communicator, shared by every
         rank's handle (never mutated) *)
  mutable shuffle : Rng.t option;
  mutable next_cid : int;  (* communicator-id allocator (rank 0 side) *)
  mutable monitor : Monitor.t option;
  mutable obs : Obs.t;
  mutable observed : bool;
      (* [Obs.enabled obs], kept here: a dev build compiles libraries
         [-opaque], so the getter would be a real call per test *)
  errh : (int, errhandler) Hashtbl.t;  (* cid -> handler; absent = raise *)
  last_errors : (int * int, error) Hashtbl.t;  (* (cid, comm rank) -> error *)
  slabs : Buf.Slabs.t;  (* the ranks' collective staging buffers *)
  pool : Buf.Pool.t;
      (* custom bounce buffers and [Harness.charged_alloc]'s; the same
         with or without a fault plan (see [run_cleanup]) *)
  (* --- resilience state (all empty on a healthy run) --- *)
  (* Each rank's cancellation registry: its registered operations,
     newest first, linked through the requests themselves
     ([Ucx.set_link]), with their count kept alongside so the prune
     check on every post is O(1).  [prune_at] is the count that
     triggers the next prune of completed entries; it follows the
     pending population, so the list stays within a small factor of
     the operations still in flight. *)
  ops : Ucx.request array;  (* world rank -> newest; [Ucx.no_request] ends *)
  n_ops : int array;
  prune_at : int array;  (* 0 until the rank's first registration *)
  registrants : (int, unit) Hashtbl.t;
      (* the ranks with a registry, walked in this table's order by a
         failure sweep *)
  revoked : (int, float) Hashtbl.t;  (* cid -> first revoke time *)
  revoked_seen : (int * int, float) Hashtbl.t;
      (* (cid, world rank) -> when the revocation reached that rank *)
  col_poison : (int * int, error) Hashtbl.t;
      (* (cid, world rank): a collective on cid failed at that rank; the
         communicator is broken for collectives until shrunk *)
  acked : (int * int, int list) Hashtbl.t;
      (* (cid, world rank) -> comm ranks whose failure was acknowledged *)
  slots : (int * int * int, agree_slot) Hashtbl.t;
      (* (cid, opcode, per-rank call index) -> agreement slot *)
}

and comm = {
  w : world;
  c_rank : int;  (* rank within this communicator *)
  group : int array;  (* comm rank -> world rank *)
  cid : int;  (* communicator id, part of the tag space *)
  mutable bar_seq : int;
  mutable agree_seq : int;  (* per-rank [comm_agree] call index *)
  mutable shrink_seq : int;  (* per-rank [comm_shrink] call index *)
  mutable staging : Buf.t;
      (* a collective's staging buffer, kept for this rank's next call
         (see [Internal.staging]); [empty_buf] while lent out *)
  mutable plain : Ucx.owner;  (* [Op] of this communicator, made once *)
  mutable bytes_rd : Ucx.recv_dt;
      (* the descriptor of the last [Bytes] receive: a collective
         receives into the same staging buffer call after call *)
}

(* One record per operation: the transport request, whose owner slot
   says what [wait]/[test] finalize and, while pending, what decides
   whether a failure or a revocation dooms it.  [r_peer] is the world
   rank of the peer (-1 for any-source receives); an operation on the
   Internal (collective) channel, whose tag says so, raises [Mpi_error]
   past the communicator's error handler. *)
type request = Ucx.request

(* What finalization does besides decoding the status: release a
   custom datatype's state and its packed bounce buffer (empty when
   it packs nothing); a receive first unpacks the bounce buffer. *)
type cleanup =
  | No_cleanup
  | Custom_send : _ Custom.op * Buf.t -> cleanup
  | Custom_recv : _ Custom.op * Buf.t -> cleanup

type Ucx.owner +=
  | Op of comm  (* the posting side's communicator; nothing else to do *)
  | Op_ext of { comm : comm; span : Obs.span; cleanup : cleanup }
      (* [span] is the op's "p2p" span, or [Obs.null_span] *)
  (* Memoized finalization: cleanup and error handling run exactly
     once, and a second wait/test replays the status or exception. *)
  | Done of status
  | Raised of exn

let op_comm (r : request) =
  match r.r_owner with
  | Op c | Op_ext { comm = c; _ } -> c
  | _ -> invalid_arg "Mpi: request has no pending operation"

(* One shared zero-byte buffer: nothing is ever written to or read
   from it, and a fresh one would cost a malloc'd bigarray each time. *)
let empty_buf = Buf.create 0

let alloc_cid w =
  let cid = w.next_cid in
  if cid > 63 (* = max_cid, defined with the tag encoding below *) then
    failwith "Mpi: communicator id space exhausted";
  w.next_cid <- cid + 1;
  cid

(* Drop completed entries, keeping the pending ones in order, and set
   the next prune point to twice what is left (at least 8): a prune
   then happens only after as many posts as it kept entries, so
   registration stays amortized O(1), and a completed operation is
   released within a few posts of completing. *)
let min_prune_at = 8

let prune_completed w owner =
  let n = ref 0 and prev = ref Ucx.no_request and r = ref w.ops.(owner) in
  while !r != Ucx.no_request do
    let next = !r.r_link in
    if Ucx.is_completed !r then begin
      Ucx.set_link !r Ucx.no_request;
      if !prev == Ucx.no_request then w.ops.(owner) <- next
      else Ucx.set_link !prev next
    end
    else begin
      incr n;
      prev := !r
    end;
    r := next
  done;
  w.n_ops.(owner) <- !n;
  w.prune_at.(owner) <- max min_prune_at (2 * !n)

(* Cancel [owner]'s live registered operations matching [pred],
   completing each with [err].  Completed entries are pruned. *)
let cancel_outstanding w ~owner ~pred err =
  if w.prune_at.(owner) > 0 then begin
    prune_completed w owner;
    let rec go (r : request) =
      if r != Ucx.no_request then begin
        if pred r then ignore (Ucx.try_cancel w.ucx r err);
        go r.r_link
      end
    in
    go w.ops.(owner)
  end

(* Register a pending operation of world rank [owner] for cancellation. *)
let register w ~owner (r : request) =
  if w.prune_at.(owner) = 0 then begin
    Hashtbl.add w.registrants owner ();
    w.prune_at.(owner) <- min_prune_at
  end;
  if w.n_ops.(owner) >= w.prune_at.(owner) then prune_completed w owner;
  Ucx.set_link r w.ops.(owner);
  w.ops.(owner) <- r;
  w.n_ops.(owner) <- w.n_ops.(owner) + 1

(* A finalized request that is its registry's newest entry, as a
   blocking operation's is, leaves it at once, instead of pinning its
   buffers until the next prune. *)
let release w ~owner (r : request) =
  if w.ops.(owner) == r then begin
    w.ops.(owner) <- r.r_link;
    Ucx.set_link r Ucx.no_request;
    w.n_ops.(owner) <- w.n_ops.(owner) - 1
  end

(* Complete an agreement slot if every group member has contributed or
   died; idempotent.  Called by each contributor and re-checked by the
   failure listener, so a participant crash can complete a slot. *)
let try_complete_slot w (slot : agree_slot) =
  match slot.s_result with
  | Some _ -> ()
  | None ->
      let n = Array.length slot.s_group in
      let all = ref true in
      for i = 0 to n - 1 do
        if
          (not (Bitset.mem slot.s_contrib i))
          && not (Ucx.is_failed w.ucx ~rank:slot.s_group.(i))
        then all := false
      done;
      if !all then begin
        if slot.s_shrink then begin
          Stats.incr w.stats Comm_shrinks;
          slot.s_new_cid <- alloc_cid w;
          (* survivor set, fixed once at completion time so every
             caller — however late — sees the same membership *)
          let surv = ref [] in
          for i = n - 1 downto 0 do
            if
              (not (Bitset.mem slot.s_failed i))
              && not (Ucx.is_failed w.ucx ~rank:slot.s_group.(i))
            then surv := i :: !surv
          done;
          slot.s_survivors <- Array.of_list !surv
        end
        else Stats.incr w.stats Comm_agreements;
        let r = slot.s_acc in
        slot.s_result <- Some r;
        if w.observed then
          Obs.instant w.obs ~time:(Engine.now w.engine) ~track:0
            ~cat:"resilience"
            ~args:[ ("value", Obs.Int slot.s_acc) ]
            (if slot.s_shrink then "shrink_complete" else "agree_complete");
        let ws = slot.s_waiters in
        slot.s_waiters <- [];
        List.iter (fun cell -> Engine.Ivar.fill cell r) ws
      end

(* Failure listener: runs once per declared failure, from the detector
   fiber or the declaring send path.  Cancels every pending operation
   the failure makes undeliverable — the dead rank's own, and any other
   rank's operation directed at it (any-source receives are left
   pending, as in ULFM) — then re-checks agreement slots the dead rank
   may have been blocking. *)
let handle_rank_failure w ~rank ~time =
  if w.observed then
    Obs.instant w.obs ~time ~track:rank ~cat:"resilience"
      ~args:[ ("rank", Obs.Int rank) ]
      "proc_failed";
  let err = Peer_failed { peer = rank } in
  Hashtbl.iter
    (fun owner _ ->
      if owner = rank then
        cancel_outstanding w ~owner ~pred:(fun _ -> true) err
      else
        cancel_outstanding w ~owner ~pred:(fun (r : request) -> r.r_peer = rank) err)
    w.registrants;
  Hashtbl.iter (fun _ slot -> try_complete_slot w slot) w.slots

let create_world ?(config = Config.default) ?topology ~size () =
  if size < 1 then invalid_arg "Mpi.create_world: size must be >= 1";
  (match topology with
  | Some topo when Topology.nranks topo < size ->
      invalid_arg
        (Printf.sprintf
           "Mpi.create_world: topology has %d ranks but the world needs %d"
           (Topology.nranks topo) size)
  | _ -> ());
  let engine = Engine.create () in
  let stats = Stats.create () in
  Engine.set_stats engine stats;
  let ucx = Ucx.create_context ~engine ~config ~stats in
  Ucx.set_topology ucx topology;
  let workers = Array.init size (fun _ -> Ucx.create_worker ucx) in
  let w =
    {
      engine;
      config;
      stats;
      ucx;
      workers;
      world_group = Array.init size Fun.id;
      shuffle = None;
      next_cid = 1;
      monitor = None;
      obs = Obs.null;
      observed = false;
      errh = Hashtbl.create 8;
      last_errors = Hashtbl.create 8;
      slabs = Buf.Slabs.create ();
      pool = Buf.Pool.create ();
      ops = Array.make size Ucx.no_request;
      n_ops = Array.make size 0;
      prune_at = Array.make size 0;
      registrants = Hashtbl.create 8;
      revoked = Hashtbl.create 4;
      revoked_seen = Hashtbl.create 8;
      col_poison = Hashtbl.create 8;
      acked = Hashtbl.create 4;
      slots = Hashtbl.create 8;
    }
  in
  Ucx.on_failure ucx (fun ~rank ~time -> handle_rank_failure w ~rank ~time);
  w

let world_engine w = w.engine
let world_stats w = w.stats
let world_config w = w.config
let world_pool w = w.pool
let transport_slabs w = Ucx.slabs w.ucx
let world_size w = Array.length w.workers
let set_unpack_shuffle w ~seed = w.shuffle <- Option.map Rng.create seed
let set_monitor w m = w.monitor <- m
let set_faults w p = Ucx.set_faults w.ucx p
let faults w = Ucx.faults w.ucx
let set_fault_tap w f = Ucx.set_tap w.ucx f

(* One sink observes every layer: MPI operations here, protocol phases
   in the transport, fiber scheduling in the engine. *)
let set_obs w o =
  w.obs <- o;
  w.observed <- Obs.enabled o;
  Ucx.set_obs w.ucx o;
  Engine.set_obs w.engine o

let make_comm w ~c_rank ~group ~cid =
  let c =
    {
      w;
      c_rank;
      group;
      cid;
      bar_seq = 0;
      agree_seq = 0;
      shrink_seq = 0;
      staging = empty_buf;
      plain = Ucx.No_owner;
      bytes_rd = Ucx.Rd_contig empty_buf;
    }
  in
  c.plain <- Op c;
  c

let comm_for_rank w r =
  if r < 0 || r >= world_size w then invalid_arg "Mpi.comm_for_rank: bad rank";
  make_comm w ~c_rank:r ~group:w.world_group ~cid:0

let set_errhandler c h = Hashtbl.replace c.w.errh c.cid h

let get_errhandler c =
  Option.value ~default:Errors_raise (Hashtbl.find_opt c.w.errh c.cid)

let last_error c = Hashtbl.find_opt c.w.last_errors (c.cid, c.c_rank)
let clear_last_error c = Hashtbl.remove c.w.last_errors (c.cid, c.c_rank)

let spawn_rank w r f =
  let comm = comm_for_rank w r in
  Engine.spawn w.engine ~name:(Printf.sprintf "rank%d" r) ~track:r (fun () ->
      f comm)

let run w f =
  for r = 0 to world_size w - 1 do
    spawn_rank w r f
  done;
  Engine.run w.engine

let rank c = c.c_rank
let size c = Array.length c.group
let world_of c = c.w
let world_rank_of c r = c.group.(r)

let any_source = -1
let any_tag = -1

(* --- tag encoding ---
   bit layout of the transport tag, a native int (bits 0-62):
     [62..48] source rank  (15 bits)
     [46..44] kind         (3 bits)
     [43..38] communicator (6 bits)
     [37..0]  user tag     (38 bits) *)

module Internal0 = struct
  type kind = User | Internal | Objmsg | Objmsg_aux | Restart
end

let kind_code : Internal0.kind -> int = function
  | User -> 0
  | Internal -> 1
  | Objmsg -> 2
  | Objmsg_aux -> 3
  | Restart -> 4

let src_shift = 48
let kind_shift = 44
let cid_shift = 38
let max_user_tag = 0x3F_FFFF_FFFF (* 2^38 - 1 *)

let encode_tag ~src ~kind ~cid ~utag =
  (src lsl src_shift) lor (kind_code kind lsl kind_shift) lor (cid lsl cid_shift)
  lor utag

let decode_source t = t lsr src_shift
let decode_utag t = t land max_user_tag
let is_internal (r : request) =
  (r.r_tag lsr kind_shift) land 7 = kind_code Internal0.Internal

let check_user_tag tag =
  if tag < 0 || tag > max_user_tag then
    invalid_arg (Printf.sprintf "Mpi: tag %d out of range" tag)

(* Receive-side tag and mask for a (source, tag) filter.  [source] is a
   WORLD rank here; communicator translation happens in the callers.
   The mask covers the kind and communicator, and the source and user
   tag unless they are wildcards. *)
let recv_tag ~kind ~cid ~source ~tag =
  let src = if source = any_source then 0 else source in
  let utag =
    if tag = any_tag then 0
    else begin
      check_user_tag tag;
      tag
    end
  in
  encode_tag ~src ~kind ~cid ~utag

let recv_mask ~source ~tag =
  (7 lsl kind_shift) lor (0x3F lsl cid_shift)
  lor (if source = any_source then 0 else 0x7FFF lsl src_shift)
  lor if tag = any_tag then 0 else max_user_tag

(* --- buffers --- *)

type buffer =
  | Bytes of Buf.t
  | Typed of { dt : Datatype.t; count : int; base : Buf.t }
  | Custom : { dt : 'o Custom.t; obj : 'o; count : int } -> buffer

let charge c t = Engine.sleep c.w.engine t
let cpu c = c.w.config.cpu

(* Wrap callback execution so Custom.Error surfaces as Mpi_error. *)
let guard f =
  try f () with Custom.Error code -> raise (Mpi_error (Callback_failed code))

let my_world_rank c = c.group.(c.c_rank)

(* Run the query (+ optional region) callbacks of a custom op, charging
   their fixed costs. *)
let custom_query c op =
  let psize = guard (fun () -> Custom.packed_size op) in
  Stats.incr c.w.stats Query_callbacks;
  charge c (cpu c).pack_cb_overhead_ns;
  let regs =
    if guard (fun () -> Custom.region_count op) > 0 then begin
      Stats.incr c.w.stats Region_queries;
      charge c (cpu c).pack_cb_overhead_ns;
      guard (fun () -> Custom.regions op)
    end
    else Buf.Iov.empty
  in
  (psize, regs)

(* Pack the packed part of a custom op into a bounce buffer from the
   world's pool, fragment by fragment (exercising partial packing).  A
   failed pack drops the buffer. *)
let custom_pack_bounce c op psize =
  let frag = c.w.config.link.frag_size in
  let b = Buf.Pool.take c.w.pool psize in
  Stats.record_alloc c.w.stats psize;
  charge c (Config.alloc_time (cpu c) psize);
  let t0 = Engine.now c.w.engine in
  let off = ref 0 and ncb = ref 0 in
  while !off < psize do
    let want = min frag (psize - !off) in
    let used =
      guard (fun () -> Custom.pack op ~offset:!off ~dst:(Buf.sub b ~pos:!off ~len:want))
    in
    Stats.incr c.w.stats Pack_callbacks;
    incr ncb;
    if used <= 0 || used > want then
      raise (Mpi_error (Callback_failed (-1)));
    off := !off + used
  done;
  Stats.record_copy c.w.stats psize;
  charge c
    (Config.memcpy_time (cpu c) psize
    +. (float_of_int !ncb *. (cpu c).pack_cb_overhead_ns)
    +. (float_of_int (Custom.pack_pieces op) *. (cpu c).pack_piece_ns));
  if c.w.observed then begin
    let t1 = Engine.now c.w.engine in
    let track = my_world_rank c in
    let sp =
      Obs.span_complete c.w.obs ~track ~cat:"proto" ~t0 ~t1
        ~args:[ ("bytes", Obs.Int psize) ]
        "custom_pack"
    in
    Obs.tile_callbacks c.w.obs ~track ~t0 ~t1 ~n:!ncb ~name:"pack_cb"
      ~hist:"pack_cb_ns" ~parent:sp
  end;
  b

(* Unpack the packed part after receive, honouring the inorder flag. *)
let custom_unpack_bounce c op b =
  let psize = Buf.length b in
  let frag = c.w.config.link.frag_size in
  let nfrags = (psize + frag - 1) / frag in
  let order = Array.init nfrags (fun i -> i) in
  (match c.w.shuffle with
  | Some rng when not (Custom.op_inorder op) -> Rng.shuffle rng order
  | _ -> ());
  let t0 = Engine.now c.w.engine in
  Array.iter
    (fun i ->
      let off = i * frag in
      let len = min frag (psize - off) in
      guard (fun () -> Custom.unpack op ~offset:off ~src:(Buf.sub b ~pos:off ~len));
      Stats.incr c.w.stats Unpack_callbacks)
    order;
  Stats.record_copy c.w.stats psize;
  charge c
    (Config.memcpy_time (cpu c) psize
    +. (float_of_int nfrags *. (cpu c).pack_cb_overhead_ns)
    +. (float_of_int (Custom.pack_pieces op) *. (cpu c).pack_piece_ns));
  if c.w.observed then begin
    let t1 = Engine.now c.w.engine in
    let track = my_world_rank c in
    let sp =
      Obs.span_complete c.w.obs ~track ~cat:"proto" ~t0 ~t1
        ~args:[ ("bytes", Obs.Int psize) ]
        "custom_unpack"
    in
    Obs.tile_callbacks c.w.obs ~track ~t0 ~t1 ~n:nfrags ~name:"unpack_cb"
      ~hist:"unpack_cb_ns" ~parent:sp
  end

(* Compiled pack plan for [dt], from the process-global memo cache,
   with the hit or miss counted in [Stats]. *)
let plan_of c dt = Plan.get ~stats:c.w.stats dt

(* Virtual-time cost of the datatype engine: identical block count (and
   so identical charge) whether the host executes the interpreter or a
   compiled plan. *)
let typed_overheads c plan count =
  let blocks = Plan.block_count plan * count in
  Stats.add c.w.stats Ddt_blocks_processed blocks;
  float_of_int blocks *. (cpu c).ddt_block_ns

(* A custom op's iov: its packed bounce buffer, if any, then its
   regions. *)
let bounce_iov packed regs =
  if Buf.length packed > 0 then Buf.Iov.cons packed regs else regs

(* The op is finished however the callbacks end, and a failing one
   surfaces as on the send path. *)
let buffer_size = function
  | Bytes b -> Buf.length b
  | Typed { dt; count; _ } -> Datatype.packed_size dt ~count
  | Custom { dt; obj; count } -> (
      let op = guard (fun () -> Custom.start dt obj ~count) in
      match
        guard (fun () ->
            let psize = Custom.packed_size op in
            if Custom.region_count op > 0 then psize + Buf.Iov.total (Custom.regions op)
            else psize)
      with
      | n ->
          Custom.finish op;
          n
      | exception e ->
          Custom.finish op;
          raise e)

(* Build the transport descriptors of a [Bytes] or [Typed] buffer;
   [custom_send_dt]/[custom_recv_dt] also return the cleanup that
   finalization runs (in the waiting fiber) for a [Custom] one. *)
let make_send_dt c = function
  | Bytes b -> Ucx.Sd_contig b
  | Custom _ -> invalid_arg "Mpi: custom buffer"
  | Typed { dt; count; base } ->
      let plan = plan_of c dt in
      let psize = Plan.packed_size plan ~count in
      if psize = 0 || Plan.is_contiguous plan then
        Ucx.Sd_contig (Buf.sub base ~pos:0 ~len:psize)
      else
        let overhead = typed_overheads c plan count in
        (* One cursor per descriptor: the transport produces fragments
           in stream order, so each pack resumes in O(1) where the
           previous one stopped. *)
        let cur = Plan.cursor plan in
        Ucx.Sd_generic
          {
            sg_packed_size = psize;
            sg_pack =
              (fun ~offset ~dst ->
                Plan.pack_range ~cursor:cur plan ~count ~src:base
                  ~packed_off:offset ~dst);
            sg_finish = ignore;
            sg_overhead_ns = overhead;
          }

let custom_send_dt c dt obj ~count =
      let op = guard (fun () -> Custom.start dt obj ~count) in
      let psize, regs =
        try custom_query c op
        with e ->
          Custom.finish op;
          raise e
      in
      let packed =
        if psize > 0 then begin
          match custom_pack_bounce c op psize with
          | b -> b
          | exception e ->
              Custom.finish op;
              raise e
        end
        else empty_buf
      in
      (Ucx.Sd_regions (bounce_iov packed regs), Custom_send (op, packed))

let make_recv_dt c = function
  | Bytes b -> (
      match c.bytes_rd with
      | Ucx.Rd_contig b' when b' == b -> c.bytes_rd
      | _ ->
          c.bytes_rd <- Ucx.Rd_contig b;
          c.bytes_rd)
  | Custom _ -> invalid_arg "Mpi: custom buffer"
  | Typed { dt; count; base } ->
      let plan = plan_of c dt in
      let psize = Plan.packed_size plan ~count in
      if psize = 0 || Plan.is_contiguous plan then
        Ucx.Rd_contig (Buf.sub base ~pos:0 ~len:psize)
      else
        let overhead = typed_overheads c plan count in
        let cur = Plan.cursor plan in
        Ucx.Rd_generic
          {
            rg_capacity = psize;
            rg_unpack =
              (fun ~offset ~src ->
                Plan.unpack_range ~cursor:cur plan ~count ~src
                  ~packed_off:offset ~dst:base);
            rg_finish = ignore;
            rg_overhead_ns = overhead;
          }

let custom_recv_dt c dt obj ~count =
      let op = guard (fun () -> Custom.start dt obj ~count) in
      let psize, regs =
        try custom_query c op
        with e ->
          Custom.finish op;
          raise e
      in
      let packed =
        if psize > 0 then begin
          let b = Buf.Pool.take c.w.pool psize in
          Stats.record_alloc c.w.stats psize;
          charge c (Config.alloc_time (cpu c) psize);
          b
        end
        else empty_buf
      in
      (Ucx.Rd_regions (bounce_iov packed regs), Custom_recv (op, packed))

(* Once the operation completes: a receive unpacks its bounce buffer,
   and the custom state is released.  A bounce buffer goes back to the
   pool only after a clean completion, the same with or without a fault
   plan: by then the transport has landed a receive's bytes, and has
   read a send's (an iovec send completes only after its data landed,
   and under a plan it was first gathered into a transport slot).
   After an error a transfer may still read or write the buffer later,
   so it is dropped. *)
let run_cleanup c (st : Ucx.status) = function
  | No_cleanup -> ()
  | Custom_send (op, b) ->
      if Buf.length b > 0 then begin
        if Option.is_none st.error then Buf.Pool.give c.w.pool b;
        Stats.record_free c.w.stats (Buf.length b)
      end;
      Custom.finish op
  | Custom_recv (op, b) ->
      if Buf.length b > 0 then begin
        if Option.is_none st.error then begin
          custom_unpack_bounce c op b;
          Buf.Pool.give c.w.pool b
        end;
        Stats.record_free c.w.stats (Buf.length b)
      end;
      Custom.finish op

(* --- requests --- *)

(* Statuses report communicator-relative source ranks: translate the
   world rank in the wire tag back through the group.  The world group
   is the identity, so only derived communicators search. *)
let comm_source c world_rank =
  let n = Array.length c.group in
  if c.group == c.w.world_group then
    if world_rank >= 0 && world_rank < n then world_rank else -1
  else
    let rec find i = if i >= n then -1 else if c.group.(i) = world_rank then i else find (i + 1) in
    find 0

let decode_status c (st : Ucx.status) =
  { source = comm_source c (decode_source st.tag); tag = decode_utag st.tag; len = st.len }

let finalize c (r : request) (u : Ucx.status) =
  (match r.r_owner with
  | Op_ext { span; cleanup; _ } ->
      (* Close the op span first so a cleanup/status exception still
         leaves a finished trace. *)
      if span != Obs.null_span then begin
        let args =
          ("len", Obs.Int u.len)
          :: (match r.r_seq with -1 -> [] | m -> [ ("mseq", Obs.Int m) ])
        in
        Obs.span_end c.w.obs ~time:(Engine.now c.w.engine) ~args span
      end;
      run_cleanup c u cleanup
  | _ -> ());
  match u.error with
  | Some err -> (
      (* On the collectives' internal channel the collective itself
         must observe the error (to poison the operation on its peers),
         so the communicator's error handler is applied by the
         collective wrapper, not here. *)
      if is_internal r then raise (Mpi_error err)
      else
        match get_errhandler c with
        | Errors_raise -> raise (Mpi_error err)
        | Errors_abort -> raise (Aborted { rank = c.c_rank; error = err })
        | Errors_return ->
            (* degraded continuation: stash the error for [last_error]
               and hand back a zero-length status *)
            Hashtbl.replace c.w.last_errors (c.cid, c.c_rank) err;
            decode_status c u)
  | None -> decode_status c u

(* Finalize a completed request, or replay its outcome: several
   fibers may have waited on it. *)
let finalize_once (r : request) (u : Ucx.status) =
  match r.r_owner with
  | Done s -> s
  | Raised e -> raise e
  | _ -> (
      let c = op_comm r in
      release c.w ~owner:(my_world_rank c) r;
      match finalize c r u with
      | s ->
          Ucx.set_owner r (Done s);
          s
      | exception e ->
          Ucx.set_owner r (Raised e);
          raise e)

let wait (r : request) =
  match r.r_owner with
  | Done _ | Raised _ -> finalize_once r r.r_status
  | _ ->
      (* A wait that actually blocks gets its own span; an immediately
         satisfied one stays invisible. *)
      let c = op_comm r in
      let w = c.w in
      let sp =
        if w.observed && not (Ucx.is_completed r) then
          Obs.span_begin w.obs ~time:(Engine.now w.engine)
            ~track:(my_world_rank c) ~cat:"p2p" "wait"
        else Obs.null_span
      in
      let u = Ucx.wait r in
      if w.observed then begin
        let args = match r.r_seq with -1 -> [] | m -> [ ("mseq", Obs.Int m) ] in
        Obs.span_end w.obs ~time:(Engine.now w.engine) ~args sp
      end;
      finalize_once r u

let waitall rs = List.map wait rs

let test (r : request) =
  if Ucx.is_completed r then Some (finalize_once r r.r_status) else None

let waitany rs =
  if rs = [] then invalid_arg "Mpi.waitany: empty request list";
  (* fast path: something already done *)
  let rec find i = function
    | [] -> None
    | r :: rest -> (
        match test r with Some s -> Some (i, s) | None -> find (i + 1) rest)
  in
  match find 0 rs with
  | Some hit -> hit
  | None ->
      (* park once on every request: the first to complete wins, and
         the others stay pending, as in MPI *)
      let i, u = Ucx.wait_any rs in
      (i, finalize_once (List.nth rs i) u)

(* Fill a posted operation's owner slot; one that is still pending
   joins [me]'s cancellation registry. *)
let own c ~me ~span ~cleanup (r : request) =
  Ucx.set_owner r
    (if span == Obs.null_span && cleanup == No_cleanup then c.plain
     else Op_ext { comm = c; span; cleanup });
  if me >= 0 && not (Ucx.is_completed r) then register c.w ~owner:me r;
  r

let check_dst c r name =
  if r < 0 || r >= size c then
    invalid_arg (Printf.sprintf "Mpi.%s: bad rank %d" name r)

(* Monitor-side classification of a buffer descriptor.  Custom types are
   opaque: running their query callbacks here would duplicate the state
   lifecycle, so the wire size is left unknown (-1) until completion. *)
let monitor_classify : buffer -> Monitor.dt_class * (Datatype.predefined * int) list * int
    = function
  | Bytes b ->
      let n = Buf.length b in
      (Monitor.Dc_bytes, (if n = 0 then [] else [ (Datatype.Byte, n) ]), n)
  | Typed { dt; count; _ } ->
      ( Monitor.Dc_typed,
        Monitor.rle_repeat (Datatype.rle_signature dt) count,
        Datatype.packed_size dt ~count )
  | Custom _ -> (Monitor.Dc_custom, [], -1)

let monitor_record c kind ~op_kind ~peer ~tag ~blocking buf (ureq : Ucx.request) =
  match c.w.monitor with
  | None -> ()
  | Some m ->
      let dt_class, signature, nbytes = monitor_classify buf in
      let op : Monitor.op =
        {
          id = Monitor.fresh_id m;
          kind = op_kind;
          rank = c.group.(c.c_rank);
          peer;
          tag;
          cid = c.cid;
          channel_kind = kind_code kind;
          dt_class;
          signature;
          nbytes;
          blocking;
          posted_at = Engine.now c.w.engine;
        }
      in
      let peek () =
        match Ucx.peek ureq with
        | None -> None
        | Some (u : Ucx.status) ->
            Some
              {
                Monitor.o_op = op;
                o_peer = decode_source u.tag;
                o_tag = decode_utag u.tag;
                o_len = u.len;
                o_error =
                  (match u.error with
                  | None -> None
                  | Some (Truncated { expected; capacity }) ->
                      Some
                        (Printf.sprintf "truncated: expected %d bytes, capacity %d"
                           expected capacity)
                  | Some (Callback_failed code) ->
                      Some (Printf.sprintf "callback failed with code %d" code)
                  | Some (Timeout { retries }) ->
                      Some (Printf.sprintf "timeout after %d retries" retries)
                  | Some (Peer_failed { peer }) ->
                      Some (Printf.sprintf "peer %d failed" peer)
                  | Some Data_corrupted -> Some "data corrupted"
                  | Some Revoked -> Some "communicator revoked");
              }
      in
      Monitor.add m op peek

(* Coarse datatype label for trace spans: the buffer's root shape, not
   the full tree.  Labels key the profiler's per-datatype aggregation
   buckets, so they must be short and low-cardinality. *)
let dt_label = function
  | Bytes _ -> "bytes"
  | Custom _ -> "custom"
  | Typed { dt; _ } -> (
      match Datatype.view dt with
      | Datatype.V_predefined _ -> Datatype.to_string dt
      | Datatype.V_contiguous _ -> "contig"
      | Datatype.V_hvector _ -> "hvector"
      | Datatype.V_hindexed _ -> "hindexed"
      | Datatype.V_struct _ -> "struct"
      | Datatype.V_resized _ -> "resized")

(* Wire size of a buffer descriptor without touching callback state.
   Custom types are opaque here — their query callbacks must not run
   twice — so their size stays unknown (-1) until completion reports
   ["len"]. *)
let buffer_wire_bytes = function
  | Bytes b -> Buf.length b
  | Typed { dt; count; _ } -> Datatype.packed_size dt ~count
  | Custom _ -> -1

(* One "p2p" span per operation, open from post to completion (closed in
   the request finalizer, i.e. at wait/test time).  [nest:false]: the
   span can outlive the posting fiber's call stack, so it must not
   capture later same-track spans as children — but it still nests under
   whatever is open at post time (e.g. a barrier span). *)
let op_span c ~blocking ~send ~peer ~tag buf =
  if c.w.observed then
    let name =
      match (blocking, send) with
      | true, true -> "send"
      | false, true -> "isend"
      | true, false -> "recv"
      | false, false -> "irecv"
    in
    Obs.span_begin c.w.obs ~time:(Engine.now c.w.engine)
      ~track:(my_world_rank c) ~cat:"p2p" ~nest:false
      ~args:
        [
          ("peer", Obs.Int peer);
          ("tag", Obs.Int tag);
          ("bytes", Obs.Int (buffer_wire_bytes buf));
          ("dt", Obs.Str (dt_label buf));
        ]
      name
  else Obs.null_span

(* The error, if any, that dooms an operation on [c] before it starts:
   a revocation this rank has seen, a poisoned collective (if
   [poisoned]), or a declared-failed rank: this one, [peer] (if not
   [-1]) or, with [group], any member. *)
let doomed c ~poisoned ~peer ~group =
  let w = c.w in
  let me = c.group.(c.c_rank) in
  (* both tables stay empty until a revoke or a poisoned collective,
     so a healthy world never hashes a key here *)
  if Hashtbl.length w.revoked_seen > 0 && Hashtbl.mem w.revoked_seen (c.cid, me)
  then Some Revoked
  else
    match
      if poisoned && Hashtbl.length w.col_poison > 0 then
        Hashtbl.find_opt w.col_poison (c.cid, me)
      else None
    with
    | Some err -> Some err
    | None when not (Ucx.any_failures w.ucx) -> None
    | None ->
        let failed r = r >= 0 && Ucx.is_failed w.ucx ~rank:r in
        if failed me then Some (Peer_failed { peer = me })
        else if failed peer then Some (Peer_failed { peer })
        else if not group then None
        else
          Option.map (fun peer -> Peer_failed { peer }) (Array.find_opt failed c.group)

(* Fail-fast check run before posting: an operation on a communicator
   this rank knows is revoked, or directed at (or posted by) a declared-
   failed rank, completes immediately with the corresponding error — no
   descriptors are built, no callback state is started, nothing touches
   the wire.  [peer_world] is [-1] for any-source receives (which, as in
   ULFM, stay pending: a live sender may still match them). *)
let fail_fast c kind ~peer_world =
  doomed c ~poisoned:(kind_code kind = kind_code Internal0.Internal) ~peer:peer_world
    ~group:false

let post_send c kind ~blocking ~me ~peer ~tag ~span ~cleanup t buf dt =
  let req = Ucx.tag_send_from c.w.workers.(me) ~dst:c.w.workers.(peer) ~tag:t dt in
  monitor_record c kind ~op_kind:Monitor.Send ~peer ~tag ~blocking buf req;
  own c ~me ~span ~cleanup req

let isend_gen c kind ~blocking ~dst ~tag buf =
  check_dst c dst "isend";
  check_user_tag tag;
  let span = op_span c ~blocking ~send:true ~peer:dst ~tag buf in
  let me = c.group.(c.c_rank) and peer = c.group.(dst) in
  let t = encode_tag ~src:me ~kind ~cid:c.cid ~utag:tag in
  match fail_fast c kind ~peer_world:peer with
  | Some err ->
      let req = Ucx.completed_request ~tag:t err in
      monitor_record c kind ~op_kind:Monitor.Send ~peer ~tag ~blocking buf req;
      own c ~me:(-1) ~span ~cleanup:No_cleanup req
  | None -> (
      match buf with
      | Custom { dt; obj; count } ->
          let dt, cleanup = custom_send_dt c dt obj ~count in
          post_send c kind ~blocking ~me ~peer ~tag ~span ~cleanup t buf dt
      | Bytes _ | Typed _ ->
          post_send c kind ~blocking ~me ~peer ~tag ~span ~cleanup:No_cleanup t
            buf (make_send_dt c buf))

let post_recv c kind ~blocking ~me ~source ~tag ~span ~cleanup t buf dt =
  let req =
    Ucx.post_recv c.w.workers.(me) ~tag:t ~mask:(recv_mask ~source ~tag)
      ~peer:source dt
  in
  monitor_record c kind ~op_kind:Monitor.Recv ~peer:source ~tag ~blocking buf req;
  own c ~me ~span ~cleanup req

let irecv_gen c kind ~blocking ?(source = any_source) ?(tag = any_tag) buf =
  if source <> any_source then check_dst c source "irecv";
  let span = op_span c ~blocking ~send:false ~peer:source ~tag buf in
  let me = c.group.(c.c_rank) in
  let source = if source = any_source then any_source else c.group.(source) in
  let t = recv_tag ~kind ~cid:c.cid ~source ~tag in
  match fail_fast c kind ~peer_world:source with
  | Some err ->
      let req = Ucx.completed_request ~tag:t err in
      monitor_record c kind ~op_kind:Monitor.Recv ~peer:source ~tag ~blocking
        buf req;
      own c ~me:(-1) ~span ~cleanup:No_cleanup req
  | None -> (
      match buf with
      | Custom { dt; obj; count } ->
          let dt, cleanup = custom_recv_dt c dt obj ~count in
          post_recv c kind ~blocking ~me ~source ~tag ~span ~cleanup t buf dt
      | Bytes _ | Typed _ ->
          post_recv c kind ~blocking ~me ~source ~tag ~span ~cleanup:No_cleanup
            t buf (make_recv_dt c buf))

let isend_k c kind ~dst ~tag buf = isend_gen c kind ~blocking:false ~dst ~tag buf
let irecv_k c kind ?source ?tag buf = irecv_gen c kind ~blocking:false ?source ?tag buf
let send_k c kind ~dst ~tag buf =
  ignore (wait (isend_gen c kind ~blocking:true ~dst ~tag buf))
let recv_k c kind ?source ?tag buf =
  wait (irecv_gen c kind ~blocking:true ?source ?tag buf)

let isend c ~dst ~tag buf = isend_k c Internal0.User ~dst ~tag buf
let irecv c ?source ?tag buf = irecv_k c Internal0.User ?source ?tag buf
let send c ~dst ~tag buf = send_k c Internal0.User ~dst ~tag buf
let recv c ?source ?tag buf = recv_k c Internal0.User ?source ?tag buf

(* --- probing --- *)

type message = Ucx.message

let probe_status c (info : Ucx.probe_info) =
  {
    source = comm_source c (decode_source info.p_tag);
    tag = decode_utag info.p_tag;
    len = info.p_len;
  }

let probe_args c kind source tag =
  let source = if source = any_source then any_source else c.group.(source) in
  (recv_tag ~kind ~cid:c.cid ~source ~tag, recv_mask ~source ~tag)

let my_worker c = c.w.workers.(c.group.(c.c_rank))

let iprobe c ?(source = any_source) ?(tag = any_tag) () =
  let t, mask = probe_args c Internal0.User source tag in
  Ucx.tag_probe (my_worker c) ~tag:t ~mask |> Option.map (probe_status c)

let probe c ?(source = any_source) ?(tag = any_tag) () =
  let t, mask = probe_args c Internal0.User source tag in
  probe_status c (Ucx.tag_probe_wait (my_worker c) ~tag:t ~mask)

let mprobe_k c kind ?(source = any_source) ?(tag = any_tag) () =
  let t, mask = probe_args c kind source tag in
  let info, msg = Ucx.tag_mprobe_wait (my_worker c) ~tag:t ~mask in
  (probe_status c info, msg)

let mrecv_k c _kind msg buf =
  let dt, cleanup =
    match buf with
    | Custom { dt; obj; count } -> custom_recv_dt c dt obj ~count
    | Bytes _ | Typed _ -> (make_recv_dt c buf, No_cleanup)
  in
  wait
    (own c ~me:(-1) ~span:Obs.null_span ~cleanup (Ucx.msg_recv (my_worker c) msg dt))

let mprobe c ?source ?tag () = mprobe_k c Internal0.User ?source ?tag ()
let mrecv c msg buf = mrecv_k c Internal0.User msg buf

(* --- ULFM-style process-failure resilience ---

   See docs/RESILIENCE.md.  The operations below follow the User-Level
   Failure Mitigation proposal in miniature: failures are detected by
   the transport (heartbeat detector or piggybacked on traffic) and
   reported through the per-communicator error handlers; [comm_revoke]
   interrupts all communication on a communicator; [comm_agree] reaches
   agreement despite participant death; [comm_shrink] rebuilds a
   working communicator from the survivors. *)

let failed_ranks c =
  (* comm ranks of this communicator's members declared failed *)
  let acc = ref [] in
  for i = Array.length c.group - 1 downto 0 do
    if Ucx.is_failed c.w.ucx ~rank:c.group.(i) then acc := i :: !acc
  done;
  !acc

let comm_failure_ack c =
  Hashtbl.replace c.w.acked (c.cid, c.group.(c.c_rank)) (failed_ranks c)

let comm_get_acked c =
  Option.value ~default:[]
    (Hashtbl.find_opt c.w.acked (c.cid, c.group.(c.c_rank)))

(* Apply the communicator's error handler to a collective-level error:
   raise it, abort the rank, or stash it and continue degraded. *)
let collective_error c err =
  match get_errhandler c with
  | Errors_raise -> raise (Mpi_error err)
  | Errors_abort -> raise (Aborted { rank = c.c_rank; error = err })
  | Errors_return -> Hashtbl.replace c.w.last_errors (c.cid, c.c_rank) err

(* The error, if any, that dooms a collective on [c] before it starts:
   a seen revocation, an earlier poisoned collective, or a declared-
   failed member (ULFM requires collectives to fail across the whole
   communicator when any member has failed). *)
let collective_ready c = doomed c ~poisoned:true ~peer:(-1) ~group:true

(* A collective that observed [err] poisons the operation for its peers:
   their pending internal-channel operations on this communicator are
   cancelled (one link latency later — the time a failure notification
   takes to cross the wire) and the communicator is marked broken for
   future collectives, so no rank blocks on a peer that already gave
   up.  A rank that is itself declared failed poisons only locally: a
   dead rank cannot notify anyone. *)
let poison_collective c err =
  let w = c.w in
  let me = c.group.(c.c_rank) in
  let mark rank =
    if not (Hashtbl.mem w.col_poison (c.cid, rank)) then begin
      Hashtbl.replace w.col_poison (c.cid, rank) err;
      cancel_outstanding w ~owner:rank
        ~pred:(fun r -> is_internal r && (op_comm r).cid = c.cid)
        err
    end
  in
  mark me;
  if not (Ucx.is_failed w.ucx ~rank:me) then
    Array.iter
      (fun peer ->
        if peer <> me then
          Engine.at w.engine ~delay:w.config.link.latency_ns (fun () ->
              mark peer))
      c.group

(* Deliver a revocation to one rank: every pending operation that rank
   has on the communicator — any channel — completes with [Revoked],
   and all its future operations on it fail fast. *)
let deliver_revoke w ~cid ~rank =
  if not (Hashtbl.mem w.revoked_seen (cid, rank)) then begin
    Hashtbl.replace w.revoked_seen (cid, rank) (Engine.now w.engine);
    if w.observed then
      Obs.instant w.obs ~time:(Engine.now w.engine) ~track:rank
        ~cat:"resilience"
        ~args:[ ("cid", Obs.Int cid) ]
        "revoked";
    cancel_outstanding w ~owner:rank
      ~pred:(fun r -> (op_comm r).cid = cid)
      Revoked
  end

let comm_revoked c =
  Hashtbl.mem c.w.revoked_seen (c.cid, c.group.(c.c_rank))

(* Revoke the communicator (ULFM MPI_Comm_revoke).  Local effect is
   immediate; every other member learns of it one link latency later.
   The broadcast is modeled as reliable — revocation state lives in the
   shared simulation, so unlike a payload it cannot be lost — which is
   exactly the guarantee ULFM demands of the revoke algorithm.
   Idempotent; a revoked communicator stays revoked. *)
(* Test-only seeded-bug switches for the explorer's mutation
   self-check (docs/FAULTS.md).  Every flag defaults to [false] and is
   consulted nowhere else, so production behavior is identical while
   they stay off. *)
module Mutation = struct
  (* Re-introduces the pre-PR-8 comm_revoke bug: a rank already
     declared failed claims the one-shot broadcast flag it can never
     honor, starving the survivors' revoke. *)
  let revoke_oneshot = ref false
end

let comm_revoke c =
  let w = c.w in
  let me = c.group.(c.c_rank) in
  (* A rank already declared failed revokes only locally: a dead rank
     cannot notify anyone, and it must not claim the one-shot broadcast
     flag either — a survivor revoking later still owes its peers the
     notification. *)
  let alive = not (Ucx.is_failed w.ucx ~rank:me) in
  let first = not (Hashtbl.mem w.revoked c.cid) in
  if first && (alive || !Mutation.revoke_oneshot) then begin
    let t0 = Engine.now w.engine in
    Hashtbl.replace w.revoked c.cid t0;
    if alive then begin
      Stats.incr w.stats Comm_revokes;
      if w.observed then
        ignore
          (Obs.span_complete w.obs ~track:me ~cat:"resilience" ~t0
             ~t1:(t0 +. w.config.link.latency_ns)
             ~args:[ ("cid", Obs.Int c.cid) ]
             "revoke_propagation");
      Array.iter
        (fun peer ->
          if peer <> me then
            Engine.at w.engine ~delay:w.config.link.latency_ns (fun () ->
                deliver_revoke w ~cid:c.cid ~rank:peer))
        c.group
    end
  end;
  deliver_revoke w ~cid:c.cid ~rank:me

(* Shared engine of [comm_agree]/[comm_shrink]: contribute an integer
   into the slot for this call index, complete it if possible, and wait
   (or read) the combined result.  The virtual-time cost modeled after
   the ULFM agreement literature is two tree traversals.  Never blocks
   on a dead rank: the failure listener re-checks slots. *)
let agree_gen c ~opcode ~shrink ~init ~combine ~contribution ~ack ~failed =
  let w = c.w in
  let me = c.group.(c.c_rank) in
  let n = size c in
  if Ucx.is_failed w.ucx ~rank:me then
    raise (Mpi_error (Peer_failed { peer = me }));
  let seq =
    if shrink then begin
      let s = c.shrink_seq in
      c.shrink_seq <- s + 1;
      s
    end
    else begin
      let s = c.agree_seq in
      c.agree_seq <- s + 1;
      s
    end
  in
  let key = (c.cid, opcode, seq) in
  let slot =
    match Hashtbl.find_opt w.slots key with
    | Some s -> s
    | None ->
        let s =
          {
            s_group = c.group;
            s_combine = combine;
            s_shrink = shrink;
            s_acc = init;
            s_ack_acc = Bitset.full n;
            s_failed = Bitset.create n;
            s_contrib = Bitset.create n;
            s_result = None;
            s_new_cid = -1;
            s_survivors = [||];
            s_waiters = [];
          }
        in
        Hashtbl.add w.slots key s;
        s
  in
  (match slot.s_result with
  | Some _ -> ()  (* completed without us: we were presumed dead *)
  | None ->
      slot.s_acc <- combine slot.s_acc contribution;
      Bitset.inter_into slot.s_ack_acc ack;
      Bitset.union_into slot.s_failed failed;
      Bitset.add slot.s_contrib c.c_rank;
      try_complete_slot w slot);
  let result =
    match slot.s_result with
    | Some r -> r
    | None ->
        let cell = Engine.Ivar.create () in
        slot.s_waiters <- cell :: slot.s_waiters;
        Engine.Ivar.read w.engine cell
  in
  (* two traversals of a binomial tree over the group *)
  let rounds =
    let rec lg k acc = if k >= n then acc else lg (k * 2) (acc + 1) in
    max 1 (lg 1 0)
  in
  let l = w.config.link in
  charge c
    (2. *. float_of_int rounds *. (l.latency_ns +. l.per_msg_overhead_ns));
  (slot, result)

(* Fault-tolerant agreement on a bitmask (ULFM MPI_Comm_agree): returns
   the AND of every live contribution.  If a member failed without
   contributing, [Peer_failed] is reported through the error handler at
   {e every} caller — unless every contributor had acknowledged that
   failure beforehand ([comm_failure_ack]).  Both the value and the
   error verdict are derived from slot state frozen at completion, so
   they are uniform across all callers. *)
let comm_agree c ~flags =
  let n = size c in
  let ack_set = Bitset.of_list n (comm_get_acked c) in
  let slot, value =
    agree_gen c ~opcode:0 ~shrink:false ~init:(lnot 0) ~combine:( land )
      ~contribution:flags ~ack:ack_set ~failed:(Bitset.create n)
  in
  let unacked = ref [] in
  for i = n - 1 downto 0 do
    if (not (Bitset.mem slot.s_contrib i)) && not (Bitset.mem slot.s_ack_acc i)
    then unacked := i :: !unacked
  done;
  (match !unacked with
  | [] -> ()
  | i :: _ -> collective_error c (Peer_failed { peer = c.group.(i) }));
  value

(* Rebuild a working communicator from the survivors (ULFM
   MPI_Comm_shrink).  Participants agree — fault-tolerantly — on the
   union of the failures each has observed; the survivor set and the
   fresh communicator id are fixed once, at agreement completion, so
   every caller derives the same membership with consistent
   renumbering (ordered by old comm rank). *)
let comm_shrink c =
  let w = c.w in
  let me = c.group.(c.c_rank) in
  let n = size c in
  let known = Bitset.create n in
  Array.iteri
    (fun i wr -> if Ucx.is_failed w.ucx ~rank:wr then Bitset.add known i)
    c.group;
  let slot, _ =
    agree_gen c ~opcode:1 ~shrink:true ~init:0 ~combine:( lor )
      ~contribution:0 ~ack:(Bitset.full n) ~failed:known
  in
  let survivors = slot.s_survivors in
  let new_cid = slot.s_new_cid in
  if w.observed then
    Obs.instant w.obs ~time:(Engine.now w.engine) ~track:me ~cat:"resilience"
      ~args:
        [ ("cid", Obs.Int c.cid); ("new_cid", Obs.Int new_cid);
          ("survivors", Obs.Int (Array.length survivors)) ]
      "comm_shrink";
  let my_new_rank = ref (-1) in
  Array.iteri (fun i cr -> if cr = c.c_rank then my_new_rank := i) survivors;
  if !my_new_rank < 0 then
    (* we were presumed dead (or revoked out): no seat in the new comm *)
    raise (Mpi_error (Peer_failed { peer = me }));
  (* the shrunk communicator inherits the parent's error handler *)
  (match Hashtbl.find_opt w.errh c.cid with
  | Some h -> Hashtbl.replace w.errh new_cid h
  | None -> ());
  make_comm w ~c_rank:!my_new_rank
    ~group:(Array.map (fun cr -> c.group.(cr)) survivors)
    ~cid:new_cid

(* --- barrier (linear; the harness only needs correctness) --- *)

(* One shared empty payload for every message that carries no bytes. *)
let empty_msg = Bytes empty_buf

let fresh_seq c =
  let seq = c.bar_seq in
  c.bar_seq <- seq + 1;
  seq

let barrier c =
  (* the sequence number is consumed unconditionally so survivors of a
     failed barrier stay aligned with ranks that failed fast *)
  let seq = fresh_seq c in
  match collective_ready c with
  | Some err -> collective_error c err
  | None -> (
      let tag = seq * 16 in
      let sp =
        if c.w.observed then
          Obs.span_begin c.w.obs ~time:(Engine.now c.w.engine)
            ~track:(my_world_rank c) ~cat:"p2p"
            ~args:[ ("seq", Obs.Int seq) ]
            "barrier"
        else Obs.null_span
      in
      let body () =
        if c.c_rank = 0 then begin
          for _ = 1 to size c - 1 do
            ignore (recv_k c Internal0.Internal ~tag empty_msg)
          done;
          for r = 1 to size c - 1 do
            send_k c Internal0.Internal ~dst:r ~tag:(tag + 1) empty_msg
          done
        end
        else begin
          send_k c Internal0.Internal ~dst:0 ~tag empty_msg;
          ignore (recv_k c Internal0.Internal ~source:0 ~tag:(tag + 1) empty_msg)
        end
      in
      match body () with
      | () -> Obs.span_end c.w.obs ~time:(Engine.now c.w.engine) sp
      | exception Mpi_error err ->
          Obs.span_end c.w.obs ~time:(Engine.now c.w.engine) sp;
          poison_collective c err;
          collective_error c err)

(* --- communicator management --- *)

let comm_split c ~color ~key =
  let seq = fresh_seq c in
  let tag = (seq * 16) + 2 in
  let n = size c in
  let me = c.c_rank in
  (* phase 1: gather (color, key) at comm rank 0; phase 2: rank 0
     allocates one fresh cid per colour and broadcasts the full table *)
  let table = Array.make n (0, 0, 0) (* color, key, cid *) in
  if me = 0 then begin
    table.(0) <- (color, key, 0);
    for i = 1 to n - 1 do
      let b = Buf.create 16 in
      ignore (recv_k c Internal0.Internal ~source:i ~tag (Bytes b));
      table.(i) <-
        (Int64.to_int (Buf.get_i64 b 0), Int64.to_int (Buf.get_i64 b 8), 0)
    done;
    let colors =
      Array.to_list table |> List.map (fun (c, _, _) -> c) |> List.sort_uniq compare
    in
    let cid_of_color = List.map (fun col -> (col, alloc_cid c.w)) colors in
    Array.iteri
      (fun i (col, k, _) -> table.(i) <- (col, k, List.assoc col cid_of_color))
      table;
    let out = Buf.create (24 * n) in
    Array.iteri
      (fun i (col, k, cid) ->
        Buf.set_i64 out (24 * i) (Int64.of_int col);
        Buf.set_i64 out ((24 * i) + 8) (Int64.of_int k);
        Buf.set_i64 out ((24 * i) + 16) (Int64.of_int cid))
      table;
    for i = 1 to n - 1 do
      send_k c Internal0.Internal ~dst:i ~tag:(tag + 1) (Bytes out)
    done
  end
  else begin
    let b = Buf.create 16 in
    Buf.set_i64 b 0 (Int64.of_int color);
    Buf.set_i64 b 8 (Int64.of_int key);
    send_k c Internal0.Internal ~dst:0 ~tag (Bytes b);
    let inc = Buf.create (24 * n) in
    ignore (recv_k c Internal0.Internal ~source:0 ~tag:(tag + 1) (Bytes inc));
    for i = 0 to n - 1 do
      table.(i) <-
        ( Int64.to_int (Buf.get_i64 inc (24 * i)),
          Int64.to_int (Buf.get_i64 inc ((24 * i) + 8)),
          Int64.to_int (Buf.get_i64 inc ((24 * i) + 16)) )
    done
  end;
  (* members of my colour, ordered by (key, old rank) *)
  let my_color, _, my_cid = table.(me) in
  let members =
    Array.to_list (Array.mapi (fun i (col, k, _) -> (col, k, i)) table)
    |> List.filter (fun (col, _, _) -> col = my_color)
    |> List.sort (fun (_, k1, r1) (_, k2, r2) -> compare (k1, r1) (k2, r2))
    |> List.map (fun (_, _, r) -> r)
  in
  let group = Array.of_list (List.map (fun r -> c.group.(r)) members) in
  let new_rank =
    let rec idx i = function
      | [] -> assert false
      | r :: rest -> if r = me then i else idx (i + 1) rest
    in
    idx 0 members
  in
  (* child communicators inherit the parent's error handler *)
  (match Hashtbl.find_opt c.w.errh c.cid with
  | Some h -> Hashtbl.replace c.w.errh my_cid h
  | None -> ());
  make_comm c.w ~c_rank:new_rank ~group ~cid:my_cid

let comm_dup c = comm_split c ~color:0 ~key:c.c_rank

module Internal = struct
  include Internal0

  let send_k = send_k
  let recv_k = recv_k
  let isend_k = isend_k
  let irecv_k = irecv_k
  let mprobe_k = mprobe_k
  let mrecv_k = mrecv_k
  let fresh_seq = fresh_seq
  let empty = empty_msg

  let staging c n =
    let b = c.staging in
    c.staging <- empty_buf;
    let b =
      if Buf.length b = n then b
      else begin
        Buf.Slabs.give c.w.slabs b;
        Buf.Slabs.take c.w.slabs n
      end
    in
    Buf.fill b '\000';
    b

  let keep_staging c b = c.staging <- b
  let registered_ops c = c.w.n_ops.(my_world_rank c)
  let collective_ready = collective_ready
  let poison_collective = poison_collective
  let collective_error = collective_error
end

let sendrecv c ~dst ~send_tag sbuf ?source ?recv_tag rbuf =
  let sreq = isend c ~dst ~tag:send_tag sbuf in
  let st = recv c ?source ?tag:recv_tag rbuf in
  ignore (wait sreq);
  st

(* --- explicit packing --- *)

let pack_size dt ~count = Datatype.packed_size dt ~count

let pack c dt ~count ~src ~dst ~position =
  let plan = plan_of c dt in
  let bytes = Plan.packed_size plan ~count in
  if position < 0 || position + bytes > Buf.length dst then
    invalid_arg "Mpi.pack: destination range";
  let n =
    Plan.pack plan ~count ~src ~dst:(Buf.sub dst ~pos:position ~len:bytes)
  in
  Stats.record_copy c.w.stats bytes;
  charge c
    (Config.memcpy_time (cpu c) bytes
    +. typed_overheads c plan count);
  position + n

let unpack c dt ~count ~src ~position ~dst =
  let plan = plan_of c dt in
  let bytes = Plan.packed_size plan ~count in
  if position < 0 || position + bytes > Buf.length src then
    invalid_arg "Mpi.unpack: source range";
  Plan.unpack plan ~count ~src:(Buf.sub src ~pos:position ~len:bytes) ~dst;
  Stats.record_copy c.w.stats bytes;
  charge c
    (Config.memcpy_time (cpu c) bytes
    +. typed_overheads c plan count);
  position + bytes
