module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Fault = Mpicd_simnet.Fault
module Obs = Mpicd_obs.Obs
module Crc32 = Mpicd_ucx.Crc32
module Mpi = Mpicd.Mpi

exception Replay_diverged of string

let () =
  Printexc.register_printer (function
    | Replay_diverged m -> Some ("Replay_diverged: " ^ m)
    | _ -> None)

(* Marker sub-space of the Restart channel's 38-bit tag range:
   application tags live below, epoch markers at [marker_base + epoch]. *)
let marker_base = 0x3E_0000_0000

type reg = { r_name : string; r_dt : Dt.t; r_count : int; r_buf : Buf.t }

type t = {
  mutable comm : Mpi.comm;
  store : Store.t;
  obs : Obs.t;
  job : string;
  nranks : int;  (* full group size at job start *)
  gid : int;  (* digest of the initial group's world ranks *)
  mutable regs : reg list;  (* registration order *)
  mutable epoch : int;
  mutable incarnation : int;
  seqs : Buf.t;
      (* per-world-rank message-log cursors: [16r] next send seq to r,
         [16r+8] next expected recv seq from r.  Registered as a hidden
         buffer so checkpoints rewind the cursors with the data. *)
}

(* --- small accessors --- *)

let comm rt = rt.comm
let epoch rt = rt.epoch
let incarnation rt = rt.incarnation
let store rt = rt.store
let world rt = Mpi.world_of rt.comm
let engine rt = Mpi.world_engine (world rt)
let stats rt = Mpi.world_stats (world rt)
let wrank rt = Mpi.world_rank_of rt.comm (Mpi.rank rt.comm)

let get_send_seq rt r = Int64.to_int (Buf.get_i64 rt.seqs (16 * r))
let set_send_seq rt r v = Buf.set_i64 rt.seqs (16 * r) (Int64.of_int v)
let get_recv_seq rt r = Int64.to_int (Buf.get_i64 rt.seqs ((16 * r) + 8))
let set_recv_seq rt r v = Buf.set_i64 rt.seqs ((16 * r) + 8) (Int64.of_int v)

let inst rt name args =
  if Obs.enabled rt.obs then
    Obs.instant rt.obs ~time:(Engine.now (engine rt)) ~track:(wrank rt)
      ~cat:"ckpt" ~args name

let span rt name f =
  if Obs.enabled rt.obs then begin
    let t0 = Engine.now (engine rt) in
    let r = f () in
    ignore
      (Obs.span_complete rt.obs ~track:(wrank rt) ~cat:"ckpt" ~t0
         ~t1:(Engine.now (engine rt)) name
        : Obs.span);
    r
  end
  else f ()

(* Model the CPU cost of moving a snapshot/log image: one streaming
   copy of its bytes, charged to this rank's virtual clock. *)
let charge rt bytes =
  let cfg = Mpi.world_config (world rt) in
  Engine.sleep (engine rt) (Config.memcpy_time cfg.Config.cpu bytes)

(* --- store paths --- *)

let snap_path ~job ~epoch ~rank name =
  Printf.sprintf "%s/ckpt/e%04d/r%03d/%s" job epoch rank name

let commit_path ~job ~epoch ~rank =
  Printf.sprintf "%s/ckpt/e%04d/commit/r%03d" job epoch rank

let log_path ~job ~src ~dst seq =
  Printf.sprintf "%s/log/r%03d/d%03d/s%08d" job src dst seq

let group_digest c =
  let n = Mpi.size c in
  let b = Buf.create (8 * n) in
  for r = 0 to n - 1 do
    Buf.set_i64 b (8 * r) (Int64.of_int (Mpi.world_rank_of c r))
  done;
  Int32.to_int (Crc32.digest b) land 0x3FFF_FFFF

(* --- registration --- *)

let register rt ~name ~dt ~count buf =
  let need = if count = 0 then 0 else Dt.extent dt * count in
  if Buf.length buf < need then
    invalid_arg
      (Printf.sprintf "Restart.register %S: buffer %dB < footprint %dB" name
         (Buf.length buf) need);
  let r = { r_name = name; r_dt = dt; r_count = count; r_buf = buf } in
  if List.exists (fun x -> x.r_name = name) rt.regs then
    rt.regs <- List.map (fun x -> if x.r_name = name then r else x) rt.regs
  else rt.regs <- rt.regs @ [ r ]

let seqs_name = "__seqs"

let registered rt =
  List.filter_map
    (fun r -> if r.r_name = seqs_name then None else Some (r.r_name, r.r_buf))
    rt.regs

let create ?(obs = Obs.null) ~store ~job c =
  let nranks = Mpi.size c in
  let seqs = Buf.create (16 * nranks) in
  let rt =
    {
      comm = c;
      store;
      obs;
      job;
      nranks;
      gid = group_digest c;
      regs = [];
      epoch = -1;
      incarnation = 0;
      seqs;
    }
  in
  register rt ~name:seqs_name ~dt:(Dt.contiguous (2 * nranks) Dt.int64)
    ~count:1 seqs;
  rt

(* --- logged point-to-point --- *)

let payload_of rt = function
  | Mpi.Bytes b -> b
  | Mpi.Typed { dt; count; base } ->
      let dst = Buf.create (Mpi.pack_size dt ~count) in
      ignore (Mpi.pack rt.comm dt ~count ~src:base ~dst ~position:0 : int);
      dst
  | Mpi.Custom _ ->
      invalid_arg "Restart.send: Custom buffers cannot be logged"

(* Log entry: [tag i64 | epoch i64 | seq i64 | payload].  The wire
   envelope carries [incarnation i64 | epoch i64 | seq i64 | payload]
   instead: the incarnation is deliberately NOT part of the logged
   image, so a replacement incarnation's re-executed send can be
   compared byte-for-byte against what the previous life sent. *)
let header_size = 24

let send rt ~dst ~tag buf =
  if tag < 0 || tag >= marker_base then
    invalid_arg "Restart.send: tag collides with the epoch-marker sub-space";
  let c = rt.comm in
  let st = stats rt in
  let wdst = Mpi.world_rank_of c dst in
  let seq = get_send_seq rt wdst in
  set_send_seq rt wdst (seq + 1);
  let e = rt.epoch + 1 in
  let payload = payload_of rt buf in
  let plen = Buf.length payload in
  let entry = Buf.create (header_size + plen) in
  Buf.set_i64 entry 0 (Int64.of_int tag);
  Buf.set_i64 entry 8 (Int64.of_int e);
  Buf.set_i64 entry 16 (Int64.of_int seq);
  Buf.blit ~src:payload ~src_pos:0 ~dst:entry ~dst_pos:header_size ~len:plen;
  let path = log_path ~job:rt.job ~src:(wrank rt) ~dst:wdst seq in
  (match Store.read rt.store path with
  | Some prev when Mpi.size c = rt.nranks ->
      (* re-execution at full group size: the logged envelope from the
         previous life must be regenerated byte-identically *)
      if not (Buf.equal prev entry) then
        raise
          (Replay_diverged
             (Printf.sprintf
                "send %d->%d seq=%d epoch=%d: payload differs from logged \
                 envelope"
                (wrank rt) wdst seq e));
      Stats.incr st Msgs_replayed;
      inst rt "log_replay_verified"
        [ ("dst", Obs.Int wdst); ("seq", Obs.Int seq) ]
  | _ ->
      Store.write rt.store path entry;
      Stats.incr st Msgs_logged;
      charge rt (Buf.length entry));
  let env = Buf.create (header_size + plen) in
  Buf.set_i64 env 0 (Int64.of_int rt.incarnation);
  Buf.set_i64 env 8 (Int64.of_int e);
  Buf.set_i64 env 16 (Int64.of_int seq);
  Buf.blit ~src:payload ~src_pos:0 ~dst:env ~dst_pos:header_size ~len:plen;
  Mpi.Internal.send_k c Restart ~dst ~tag (Mpi.Bytes env)

let recv rt ~source ~tag buf =
  let c = rt.comm in
  let st = stats rt in
  let wsrc = Mpi.world_rank_of c source in
  let scratch = Buf.create (header_size + Mpi.buffer_size buf) in
  let rec loop () =
    let status =
      Mpi.Internal.recv_k c Restart ~source ~tag (Mpi.Bytes scratch)
    in
    let env_inc = Int64.to_int (Buf.get_i64 scratch 0) in
    let seq = Int64.to_int (Buf.get_i64 scratch 16) in
    let expected = get_recv_seq rt wsrc in
    if seq < expected then begin
      (* duplicate (or stale pre-recovery) envelope: deterministic
         re-execution already delivered this sequence number *)
      Stats.incr st Dups_suppressed;
      inst rt "dup_suppressed"
        [
          ("src", Obs.Int wsrc);
          ("seq", Obs.Int seq);
          ("incarnation", Obs.Int env_inc);
        ];
      loop ()
    end
    else if seq > expected then
      raise
        (Replay_diverged
           (Printf.sprintf "recv %d<-%d: sequence gap (got %d, expected %d)"
              (wrank rt) wsrc seq expected))
    else begin
      set_recv_seq rt wsrc (expected + 1);
      let plen = status.Mpi.len - header_size in
      (match buf with
      | Mpi.Bytes b ->
          Buf.blit ~src:scratch ~src_pos:header_size ~dst:b ~dst_pos:0
            ~len:plen
      | Mpi.Typed { dt; count; base } ->
          ignore
            (Mpi.unpack c dt ~count
               ~src:(Buf.sub scratch ~pos:header_size ~len:plen)
               ~position:0 ~dst:base
              : int)
      | Mpi.Custom _ ->
          invalid_arg "Restart.recv: Custom buffers cannot be logged");
      { status with Mpi.len = plen }
    end
  in
  loop ()

(* --- epochs --- *)

let snapshot_one rt ~epoch reg =
  let st = stats rt in
  let img =
    Snapshot.encode ~stats:st ~epoch ~rank:(wrank rt) ~cid:rt.gid
      ~dt:reg.r_dt ~count:reg.r_count ~src:reg.r_buf ()
  in
  Store.write rt.store
    (snap_path ~job:rt.job ~epoch ~rank:(wrank rt) reg.r_name)
    img;
  Stats.record_checkpoint st ~bytes:(Buf.length img);
  charge rt (Buf.length img)

let commit rt =
  let c = rt.comm in
  let n = Mpi.size c in
  let me = Mpi.rank c in
  let e = rt.epoch + 1 in
  span rt "commit" (fun () ->
      (* 1. Chandy–Lamport cut: exchange epoch markers on the Restart
         channel.  Per-channel FIFO means that once peer p's marker is
         in, every interval-[e] envelope p sent us has been delivered
         (the application consumed them before calling commit). *)
      let tag = marker_base + e in
      let marker = Buf.create 16 in
      Buf.set_i64 marker 0 (Int64.of_int e);
      Buf.set_i64 marker 8 (Int64.of_int rt.incarnation);
      let sends = ref [] in
      for p = 0 to n - 1 do
        if p <> me then
          sends :=
            Mpi.Internal.isend_k c Restart ~dst:p ~tag (Mpi.Bytes marker)
            :: !sends
      done;
      let scratch = Buf.create 16 in
      for p = 0 to n - 1 do
        if p <> me then begin
          ignore
            (Mpi.Internal.recv_k c Restart ~source:p ~tag (Mpi.Bytes scratch)
              : Mpi.status);
          inst rt "epoch_marker"
            [
              ("from", Obs.Int (Mpi.world_rank_of c p)); ("epoch", Obs.Int e);
            ]
        end
      done;
      ignore (Mpi.waitall !sends : Mpi.status list);
      (* 2. Snapshot every registered buffer through its pack plan. *)
      List.iter (fun reg -> snapshot_one rt ~epoch:e reg) rt.regs;
      (* 3. Completion: the failure-aware barrier proves every member
         wrote its snapshots; the completion marker lands right after
         the barrier returns (no operation in between can fail), so
         the minimum locally-committed epoch across survivors is
         always globally complete. *)
      Mpi.barrier c;
      (* The persisted marker carries only the epoch: the incarnation
         is a property of the world that happened to write it, and a
         recovered run's store must converge byte-identically with the
         fault-free run's. *)
      let done_marker = Buf.create 8 in
      Buf.set_i64 done_marker 0 (Int64.of_int e);
      Store.write rt.store
        (commit_path ~job:rt.job ~epoch:e ~rank:(wrank rt))
        done_marker;
      rt.epoch <- e;
      inst rt "epoch_complete" [ ("epoch", Obs.Int e) ])

let restore_to rt ~epoch =
  span rt "restore" (fun () ->
      let st = stats rt in
      List.iter
        (fun reg ->
          let path =
            snap_path ~job:rt.job ~epoch ~rank:(wrank rt) reg.r_name
          in
          let img =
            match Store.read rt.store path with
            | Some b -> b
            | None ->
                (* a missing image fails closed exactly like a
                   zero-length one *)
                raise
                  (Snapshot.Corrupt_snapshot
                     (Snapshot.Too_short
                        { need = Snapshot.header_size; got = 0 }))
          in
          ignore
            (Snapshot.decode_exn ~stats:st ~dt:reg.r_dt ~count:reg.r_count
               ~dst:reg.r_buf img
              : Snapshot.meta);
          Stats.incr st Buffers_restored;
          charge rt (Buf.length img))
        rt.regs;
      rt.epoch <- epoch;
      inst rt "restored" [ ("epoch", Obs.Int epoch) ])

let parse_commit_path ~job path =
  let prefix = job ^ "/ckpt/e" in
  if not (String.starts_with ~prefix path) then None
  else
    try
      Scanf.sscanf
        (String.sub path (String.length prefix)
           (String.length path - String.length prefix))
        "%4d/commit/r%3d%!"
        (fun e r -> Some (e, r))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let latest_complete_epoch store ~job ~nranks =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun p ->
      match parse_commit_path ~job p with
      | Some (e, _) ->
          Hashtbl.replace counts e
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts e))
      | None -> ())
    (Store.list store ~prefix:(job ^ "/ckpt/"));
  Hashtbl.fold
    (fun e n best -> if n >= nranks && e > best then e else best)
    counts (-1)

let prune_log rt ~upto =
  let prefix = Printf.sprintf "%s/log/r%03d/" rt.job (wrank rt) in
  List.iter
    (fun path ->
      match Store.read rt.store path with
      | Some b
        when Buf.length b >= header_size
             && Int64.to_int (Buf.get_i64 b 8) <= upto ->
          Store.delete rt.store path
      | _ -> ())
    (Store.list rt.store ~prefix)

(* --- recovery orchestration --- *)

let rec floor_log2 n = if n <= 1 then 0 else 1 + floor_log2 (n lsr 1)

(* Epoch [e] (>= -1) encoded for the AND-agreement as "bits [0..e+1]
   set": the AND across survivors keeps exactly the bits every member
   has, whose highest set bit therefore encodes the minimum — i.e. the
   latest globally-complete — epoch. *)
let epoch_mask e = (1 lsl (min e 58 + 2)) - 1

let recover rt =
  let st = stats rt in
  Stats.incr st Recoveries;
  span rt "recovery" (fun () ->
      let c = rt.comm in
      inst rt "recovery_begin"
        [ ("epoch", Obs.Int rt.epoch); ("incarnation", Obs.Int rt.incarnation) ];
      Mpi.comm_failure_ack c;
      Mpi.comm_revoke c;
      let c' = Mpi.comm_shrink c in
      rt.comm <- c';
      Mpi.comm_failure_ack c';
      let agreed = Mpi.comm_agree c' ~flags:(epoch_mask rt.epoch) in
      let restore_e = floor_log2 agreed - 1 in
      rt.incarnation <- rt.incarnation + 1;
      if restore_e >= 0 then begin
        restore_to rt ~epoch:restore_e;
        prune_log rt ~upto:restore_e
      end
      else begin
        (* nothing globally complete: rewind the log cursors; the
           caller re-initializes application state *)
        Buf.fill rt.seqs '\000';
        rt.epoch <- -1
      end;
      inst rt "recovery_complete"
        [
          ("epoch", Obs.Int restore_e);
          ("survivors", Obs.Int (Mpi.size c'));
        ];
      restore_e)

type app = { epochs : int; init : t -> unit; step : t -> epoch:int -> unit }

let run_protected ?(max_recoveries = 8) rt app =
  let recoveries = ref 0 in
  app.init rt;
  if rt.epoch < 0 then commit rt;
  let rec recover_loop () =
    match recover rt with
    | e -> e
    | exception Mpi.Mpi_error _ when !recoveries < max_recoveries ->
        incr recoveries;
        recover_loop ()
  in
  let rec loop () =
    if rt.epoch < app.epochs then begin
      (try
         app.step rt ~epoch:(rt.epoch + 1);
         commit rt
       with Mpi.Mpi_error _ when !recoveries < max_recoveries ->
         incr recoveries;
         let e = recover_loop () in
         if e < 0 then begin
           app.init rt;
           commit rt
         end);
      loop ()
    end
  in
  loop ()

type job_report = {
  worlds_used : int;
  completed : bool;
  start_epochs : int list;
}

let run_job ?(config = Config.default) ?plan ?obs ?(max_worlds = 8) ~store
    ~job ~size app =
  (match plan with
  | Some p when p.Fault.crashes <> [] && p.Fault.hb_period_ns <= 0. ->
      invalid_arg "Restart.run_job: a crash plan needs heartbeats (hb=)"
  | _ -> ());
  let starts = ref [] in
  let rec attempt k plan_opt =
    if k >= max_worlds then
      { worlds_used = k; completed = false; start_epochs = List.rev !starts }
    else begin
      let w = Mpi.create_world ~config ~size () in
      Mpi.set_faults w plan_opt;
      (match obs with Some o -> Mpi.set_obs w o | None -> ());
      let finished = Array.make size false in
      let start_e = latest_complete_epoch store ~job ~nranks:size in
      starts := start_e :: !starts;
      let body c =
        let rt = create ?obs ~store ~job c in
        rt.incarnation <- k;
        app.init rt;
        if start_e >= 0 then restore_to rt ~epoch:start_e else commit rt;
        for e = rt.epoch + 1 to app.epochs do
          app.step rt ~epoch:e;
          commit rt
        done;
        finished.(Mpi.rank c) <- true
      in
      (try
         Mpi.run w (fun c ->
             try body c with Mpi.Mpi_error _ | Mpi.Aborted _ -> ())
       with Engine.Deadlock _ -> ());
      if Array.for_all Fun.id finished then
        {
          worlds_used = k + 1;
          completed = true;
          start_epochs = List.rev !starts;
        }
      else begin
        (* respawn as a simulated replacement: crashes that already
           fired in this life are stripped — the replacement rank does
           not die again — while timing faults keep their schedule *)
        let now = Engine.now (Mpi.world_engine w) in
        let plan' =
          Option.map
            (fun p ->
              {
                p with
                Fault.crashes =
                  List.filter (fun (_, t) -> t > now) p.Fault.crashes;
              })
            plan_opt
        in
        attempt (k + 1) plan'
      end
    end
  in
  attempt 0 plan
