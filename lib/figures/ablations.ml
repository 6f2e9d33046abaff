(* Ablation benchmarks for the design choices DESIGN.md calls out:
   each sweeps one cost-model parameter or algorithm choice and shows
   how the headline effects move with it. *)

module Buf = Mpicd_buf.Buf
module Config = Mpicd_simnet.Config
module Engine = Mpicd_simnet.Engine
module Mpi = Mpicd.Mpi
module Stats = Mpicd_simnet.Stats
module Coll = Mpicd_collectives.Collectives
module P = Mpicd_pickle.Pickle
module Objmsg = Mpicd_objmsg.Objmsg
module H = Mpicd_harness.Harness
module Report = Mpicd_harness.Report
module B = Mpicd_bench_types.Bench_types

let reps = 4

(* One series per swept value [v], one point per size [n]: [point n]
   builds the size's inputs once and returns the message bytes and a
   method on those inputs, measured under [config v] for every [v]. *)
let sweep ~label ~config ~value values sizes point =
  Report.of_rows (List.map label values)
    (List.map
       (fun n ->
         let bytes, make = point n in
         ( n,
           List.map
             (fun v -> value (H.pingpong ~config:(config v) ~reps ~bytes make))
             values ))
       sizes)

(* A struct-simple point: the element count whose packed size best
   matches [n], and [meth] on one input pair of that many. *)
let struct_simple_point
    (meth : ?inputs:Methods.slabs -> (module B.STRUCT) -> count:int -> unit -> H.impl)
    n =
  let m = (module B.Struct_simple : B.STRUCT) in
  let count = B.Struct_simple.count_for_packed_bytes n in
  let inputs = Methods.st_inputs m ~count in
  (count * B.Struct_simple.packed_elem_size, meth ~inputs m ~count)

(* A1: the Fig. 7 dip is the eager->rendezvous switch: sweeping the
   eager limit moves the dip. *)
let eager_limit_sweep () =
  sweep
    ~label:(fun limit ->
      Printf.sprintf "manual-pack(eager<=%s)" (Report.human_bytes limit))
    ~config:(fun limit ->
      { Config.default with link = { Config.default.link with eager_limit = limit } })
    ~value:(fun r -> r.H.bandwidth_mib_s)
    [ 8 * 1024; 32 * 1024; 128 * 1024 ]
    (List.init 10 (fun i -> 1 lsl (i + 12)))
    (struct_simple_point Methods.st_manual)

(* A2: the custom path's sensitivity to the per-iov-entry cost (the
   Fig. 1 small-subvector penalty). *)
let iov_entry_sweep () =
  let total = 1 lsl 20 in
  sweep
    ~label:(Printf.sprintf "custom(iov=%dns/entry)")
    ~config:(fun entry_ns ->
      {
        Config.default with
        link = { Config.default.link with iov_entry_ns = float_of_int entry_ns };
      })
    ~value:(fun r -> r.H.bandwidth_mib_s)
    [ 0; 120; 480 ]
    [ 64; 128; 256; 512; 1024; 2048; 4096 ]
    (fun subvec ->
      let inputs = Methods.dv_inputs ~subvec ~total in
      (total, Methods.dv_custom ~inputs ~subvec ~total))

(* A3: the per-typemap-block cost drives the Fig. 5 gap between the
   derived-datatype baseline and everything else. *)
let ddt_block_sweep () =
  sweep
    ~label:(Printf.sprintf "rsmpi(ddt=%dns/block)")
    ~config:(fun block_ns ->
      {
        Config.default with
        cpu = { Config.default.cpu with ddt_block_ns = float_of_int block_ns };
      })
    ~value:(fun r -> r.H.latency_us)
    [ 0; 5; 18; 45 ]
    (List.init 9 (fun i -> 1 lsl (i + 8)))
    (struct_simple_point Methods.st_rsmpi)

(* A4: barrier algorithms across world sizes. *)
let barrier_scaling () =
  let time_of nranks f =
    let w = Mpi.create_world ~size:nranks () in
    let t = ref 0. in
    Mpi.run w (fun comm ->
        (* warm up, then time one barrier *)
        f comm;
        let t0 = Engine.now (Mpi.world_engine w) in
        f comm;
        if Mpi.rank comm = 0 then t := Engine.now (Mpi.world_engine w) -. t0);
    !t /. 1000.
  in
  let ranks = [ 2; 4; 8; 16; 32; 64 ] in
  [
    {
      Report.label = "linear-barrier";
      points = List.map (fun n -> (n, time_of n Mpi.barrier)) ranks;
    };
    {
      Report.label = "dissemination-barrier";
      points = List.map (fun n -> (n, time_of n Coll.barrier)) ranks;
    };
  ]

(* A5: message counts and peak memory per object strategy (the §VI
   discussion quantified).  One object serves every strategy: senders
   only read it, and the rows depend only on its sizes. *)
let objmsg_rows obj ~bytes =
  List.map
    (fun strategy ->
      let w = Mpi.create_world ~size:2 () in
      Mpi.run w (fun comm ->
          if Mpi.rank comm = 0 then Objmsg.send strategy comm ~dst:1 ~tag:0 obj
          else ignore (Objmsg.recv strategy comm ~source:0 ~tag:0 ()));
      let stats = Mpi.world_stats w in
      [
        Objmsg.strategy_name strategy;
        string_of_int (Stats.get stats Messages_sent);
        Printf.sprintf "%.2f"
          (float_of_int stats.peak_alloc_bytes /. float_of_int bytes);
        Printf.sprintf "%.2f"
          (float_of_int (Stats.get stats Bytes_copied) /. float_of_int bytes);
      ])
    [ Objmsg.Pickle_basic; Objmsg.Pickle_oob; Objmsg.Pickle_oob_cdt ]

let objmsg_costs () =
  let bytes = 8 * 1024 * 1024 in
  let obj =
    P.List
      (List.init (max 1 (bytes / (128 * 1024))) (fun _ ->
           P.Ndarray (P.ndarray ~dtype:P.U8 [| 128 * 1024 |])))
  in
  (bytes, objmsg_rows obj ~bytes)

(* A6: the §VI multithreading claim, quantified: per-communicator
   locking vs the single-operation custom datatype path. *)
let print_threading () =
  let module T = Mpicd_objmsg.Threaded in
  let run mode nthreads =
    T.run mode ~nthreads ~objects_per_thread:8 ~arrays_per_object:4
      ~chunk_bytes:4096
  in
  let rows =
    List.concat_map
      (fun nthreads ->
        List.map
          (fun mode ->
            let o = run mode nthreads in
            [
              string_of_int nthreads;
              T.mode_name mode;
              Printf.sprintf "%.1f" o.T.elapsed_us;
              string_of_int o.T.corrupted;
              string_of_int o.T.messages;
            ])
          [ T.Oob_locked; T.Oob_unlocked; T.Cdt_tagged ])
      [ 1; 2; 4; 8 ]
  in
  Report.print_kv_table
    ~title:
      "Ablation A6: multithreaded senders (8 objects/thread, 4x4KiB arrays)"
    ~header:[ "threads"; "mode"; "elapsed us"; "corrupted"; "messages" ]
    rows

(* A7: device-resident buffers (§VI accelerator discussion): host
   staging vs device pack kernels vs direct NIC access, on real kernel
   layouts. *)
let print_device () =
  let module D = Mpicd_device.Device in
  let module Kernel = Mpicd_ddtbench.Kernel in
  let kernels = [ "NAS_LU_x"; "NAS_LU_y"; "NAS_MG_x"; "NAS_MG_y" ] in
  let rows =
    List.filter_map
      (fun name ->
        Option.map
          (fun (module K : Kernel.KERNEL) ->
            let bw m =
              (H.pingpong ~reps ~bytes:K.wire_bytes
                 (D.exchange_impl m ~plan:K.plan ~slab_bytes:K.slab_bytes))
                .H.bandwidth_mib_s
            in
            name
            :: Report.human_bytes K.wire_bytes
            :: List.map
                 (fun m -> Printf.sprintf "%.0f" (bw m))
                 [ D.Staged_host_pack; D.Device_pack_staged; D.Device_pack_direct ])
          (Mpicd_ddtbench.Registry.find name))
      kernels
  in
  Report.print_kv_table
    ~title:"Ablation A7: device-resident halo exchange (MiB/s)"
    ~header:
      [ "kernel"; "size"; "staged-host-pack"; "device-pack-staged"; "device-pack-direct" ]
    rows

(* A8: where the time actually goes per transfer method, from the
   wait-state profiler: pack-time share (pack + unpack phases plus
   their callback time) and wait-time share of total rank time, plus
   the dominant wait classes, all on one DDTBench kernel. *)
let profile_shares ?(kernel = "NAS_MG_x") () =
  let module Kernel = Mpicd_ddtbench.Kernel in
  let module Profile = Mpicd_obs.Profile in
  match Mpicd_ddtbench.Registry.find kernel with
  | None -> (kernel, [])
  | Some (module K : Kernel.KERNEL) ->
      let k = (module K : Kernel.KERNEL) in
      let methods = Methods.kernel_methods k (Methods.slabs k) in
      ( K.name,
        List.map
          (fun (name, make) ->
            match make with
            | None -> [ name; "-"; "-"; "-"; "-"; "-" ]
            | Some make ->
                let r, p = H.pingpong_profiled ~reps ~bytes:K.wire_bytes make in
                [
                  name;
                  Printf.sprintf "%.0f" r.H.bandwidth_mib_s;
                  Printf.sprintf "%.1f%%" (100. *. Profile.pack_share p);
                  Printf.sprintf "%.1f%%" (100. *. Profile.wait_share p);
                  Printf.sprintf "%.1f"
                    (Profile.wait_class_ns p Profile.Late_sender /. 1000.);
                  Printf.sprintf "%.1f"
                    (Profile.wait_class_ns p Profile.Rndv_stall /. 1000.);
                ])
          methods )

let print_profile_shares () =
  let kernel, rows = profile_shares () in
  Report.print_kv_table
    ~title:
      (Printf.sprintf
         "Ablation A8: per-method time attribution on %s (wait-state profiler)"
         kernel)
    ~header:
      [ "method"; "MiB/s"; "pack share"; "wait share"; "late-sender us"; "rndv-stall us" ]
    rows

let print_objmsg_costs () =
  let bytes, rows = objmsg_costs () in
  Report.print_kv_table
    ~title:
      (Printf.sprintf
         "Ablation A5: per-strategy costs for one %s Python object"
         (Report.human_bytes bytes))
    ~header:[ "strategy"; "MPI messages"; "peak mem / payload"; "copies / payload" ]
    rows

let all : (string * string * string * (unit -> Report.series list)) list =
  [
    ("ablation-eager", "Ablation A1: eager-limit sweep (struct-simple manual-pack)", "MiB/s", eager_limit_sweep);
    ("ablation-iov", "Ablation A2: iov entry cost vs subvector size (double-vec custom, 1 MiB)", "MiB/s", iov_entry_sweep);
    ("ablation-ddt", "Ablation A3: ddt per-block cost (struct-simple rsmpi latency)", "latency us", ddt_block_sweep);
    ("ablation-barrier", "Ablation A4: barrier scaling (time per barrier)", "us", barrier_scaling);
  ]
