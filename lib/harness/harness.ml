module Buf = Mpicd_buf.Buf
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Mpi = Mpicd.Mpi
module Obs = Mpicd_obs.Obs
module Profile = Mpicd_obs.Profile

type impl = {
  send : Mpi.comm -> dst:int -> tag:int -> unit;
  recv : Mpi.comm -> source:int -> tag:int -> unit;
}

type result = {
  bytes : int;
  latency_us : float;
  bandwidth_mib_s : float;
  stats : Stats.t;
}

let charge comm t = Engine.sleep (Mpi.world_engine (Mpi.world_of comm)) t

let charged_alloc comm n =
  let w = Mpi.world_of comm in
  let b = Buf.Pool.take (Mpi.world_pool w) n in
  Stats.record_alloc (Mpi.world_stats w) n;
  charge comm (Config.alloc_time (Mpi.world_config w).cpu n);
  b

let charged_free comm b =
  let w = Mpi.world_of comm in
  Stats.record_free (Mpi.world_stats w) (Buf.length b);
  Buf.Pool.give (Mpi.world_pool w) b

let charge_copy comm n =
  Stats.record_copy (Mpi.world_stats (Mpi.world_of comm)) n;
  charge comm (Config.memcpy_time (Mpi.world_config (Mpi.world_of comm)).cpu n)

let charge_pieces comm n =
  charge comm
    (float_of_int n *. (Mpi.world_config (Mpi.world_of comm)).cpu.pack_piece_ns)

let charge_ddt_blocks comm n =
  Stats.add (Mpi.world_stats (Mpi.world_of comm)) Ddt_blocks_processed n;
  charge comm
    (float_of_int n *. (Mpi.world_config (Mpi.world_of comm)).cpu.ddt_block_ns)

let charge_ns comm ns = charge comm ns

let pingpong ?(config = Config.default) ?(warmup = 2) ?(reps = 10) ?obs ?faults
    ~bytes make =
  let w = Mpi.create_world ~config ~size:2 () in
  (match obs with Some o -> Mpi.set_obs w o | None -> ());
  (match faults with Some _ -> Mpi.set_faults w faults | None -> ());
  let impl = make () in
  let measured = ref 0. in
  let base_stats = ref (Stats.create ()) in
  Mpi.run w (fun comm ->
      let engine = Mpi.world_engine w in
      let rounds measured_rounds start_round =
        for round = start_round to start_round + measured_rounds - 1 do
          if Mpi.rank comm = 0 then begin
            impl.send comm ~dst:1 ~tag:round;
            impl.recv comm ~source:1 ~tag:round
          end
          else begin
            impl.recv comm ~source:0 ~tag:round;
            impl.send comm ~dst:0 ~tag:round
          end
        done
      in
      rounds warmup 0;
      Mpi.barrier comm;
      if Mpi.rank comm = 0 then base_stats := Stats.snapshot (Mpi.world_stats w);
      let t0 = Engine.now engine in
      rounds reps warmup;
      if Mpi.rank comm = 0 then measured := Engine.now engine -. t0);
  let one_way_ns = !measured /. float_of_int (2 * reps) in
  let stats = Stats.diff ~after:(Mpi.world_stats w) ~before:!base_stats in
  {
    bytes;
    latency_us = one_way_ns /. 1000.;
    bandwidth_mib_s =
      (if one_way_ns <= 0. then 0.
       else float_of_int bytes /. (one_way_ns /. 1e9) /. (1024. *. 1024.));
    stats;
  }

let pingpong_profiled ?config ?warmup ?reps ?faults ~bytes make =
  let obs = Obs.create () in
  let result = pingpong ?config ?warmup ?reps ~obs ?faults ~bytes make in
  (result, Profile.analyze obs)

(* --- large-communicator workloads --- *)

module Topology = Mpicd_simnet.Topology
module Collectives = Mpicd_collectives.Collectives

type scale_result = {
  ranks : int;
  topology : string;
  sim_time_ns : float;
  events : int;
  pooled : int;
  max_live : int;
  congestion_events : int;
  congestion_wait_ns : float;
  checksum : float;
}

let scale_allreduce ?(config = Config.default) ?topology ?(iters = 1)
    ?(elems = 8) ~ranks () =
  if ranks < 1 then invalid_arg "Harness.scale_allreduce: ranks must be >= 1";
  if iters < 1 then invalid_arg "Harness.scale_allreduce: iters must be >= 1";
  let w = Mpi.create_world ~config ?topology ~size:ranks () in
  let checksum = ref 0. in
  Mpi.run w (fun comm ->
      let me = Mpi.rank comm in
      let data = Array.init elems (fun i -> float_of_int (me + i)) in
      for _ = 1 to iters do
        Collectives.allreduce_f64 comm ~op:`Sum data
      done;
      Collectives.barrier comm;
      if me = 0 then checksum := data.(0));
  let stats = Mpi.world_stats w in
  {
    ranks;
    topology =
      (match topology with
      | None -> "flat"
      | Some topo -> Topology.kind_name topo);
    sim_time_ns = Engine.now (Mpi.world_engine w);
    events = stats.Stats.events_scheduled_total;
    pooled = stats.Stats.events_pooled_reuses;
    max_live = stats.Stats.max_live_events;
    congestion_events =
      (match topology with
      | None -> 0
      | Some topo -> Topology.congestion_events topo);
    congestion_wait_ns =
      (match topology with
      | None -> 0.
      | Some topo -> Topology.congestion_wait_ns topo);
    checksum = !checksum;
  }
