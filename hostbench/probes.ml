(* Per-layer probes for the traced run.  Each probe times calls into
   one layer's public functions on the workloads' own inputs (the
   paper's DDTBench kernels and struct types, the Fig. 8/9 object
   shapes, 1k/4k-rank worlds) and reports one number per metric.  All
   times are host time.  Calls a workload already times (allreduce
   rounds, explorer runs) are not probed again: their numbers come from
   the workload, in the trace file. *)

module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype
module Plan = Mpicd_datatype.Plan
module Normalize = Mpicd_datatype.Normalize
module Custom = Mpicd.Custom
module Mpi = Mpicd.Mpi
module Collectives = Mpicd_collectives.Collectives
module Serde = Mpicd_serde.Serde
module Pickle = Mpicd_pickle.Pickle
module Evq = Mpicd_simnet.Evq
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Fault = Mpicd_simnet.Fault
module Ucx = Mpicd_ucx.Ucx
module Snapshot = Mpicd_restart.Snapshot
module Harness = Mpicd_harness.Harness
module Methods = Mpicd_figures.Methods
module B = Mpicd_bench_types.Bench_types
module Kernel = Mpicd_ddtbench.Kernel
module Registry = Mpicd_ddtbench.Registry

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let reps = 11
let kib = 1024
let mib = 1024 * 1024

(* --- datatype inputs: the 8 paper kernels, struct-simple, struct-vec *)

type dt_input = {
  dt : Dt.t;
  count : int;
  src : Buf.t;
  sink : Buf.t;
  packed : Buf.t;
  custom : (unit -> int) option;  (** pack the whole stream via the custom API *)
}

let custom_packer dt obj ~count ~dst () =
  let op = Custom.start dt obj ~count in
  let total = Custom.packed_size op in
  let rec go off =
    if off < total then
      go (off + Custom.pack op ~offset:off ~dst:(Buf.sub dst ~pos:off ~len:(total - off)))
  in
  go 0;
  Custom.finish op;
  total

let dt_inputs () =
  let of_kernel k =
    let module K = (val k : Kernel.KERNEL) in
    let src = K.create () and packed = Buf.create K.wire_bytes in
    {
      dt = K.derived;
      count = 1;
      src;
      sink = K.create_sink ();
      packed;
      custom = Some (custom_packer K.custom_pack src ~count:1 ~dst:packed);
    }
  in
  let of_struct (module S : B.STRUCT) ~with_custom =
    let count = S.count_for_packed_bytes (64 * kib) in
    let src = S.generate ~count in
    let packed = Buf.create (Dt.packed_size S.derived ~count) in
    {
      dt = S.derived;
      count;
      src;
      sink = S.make_sink ~count;
      packed;
      custom =
        (if with_custom then Some (custom_packer S.custom_dt src ~count ~dst:packed)
         else None);
    }
  in
  List.map of_kernel Registry.paper_kernels
  @ [
      of_struct (module B.Struct_simple) ~with_custom:true;
      of_struct (module B.Struct_vec) ~with_custom:false;
    ]

let packed_bytes i = Dt.packed_size i.dt ~count:i.count

(* Sum of per-input medians over the sum of bytes. *)
let ns_per_byte inputs f =
  let ns, bytes =
    List.fold_left
      (fun (ns, bytes) i ->
        (ns +. Timing.median_ns ~reps (fun () -> f i), bytes + packed_bytes i))
      (0., 0) inputs
  in
  ns /. float_of_int bytes

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let snapshot i =
  Snapshot.encode ~epoch:1 ~rank:0 ~cid:0 ~dt:i.dt ~count:i.count ~src:i.src ()

(* Walk a [bytes]-long packed stream in transport-sized fragments with
   one plan cursor, as the generic protocol does; returns the number of
   fragments. *)
let fragments plan ~bytes f =
  let frag = Config.default_link.Config.frag_size in
  let cur = Plan.cursor plan in
  let rec go off n =
    if off >= bytes then n
    else begin
      let len = min frag (bytes - off) in
      ignore (f cur ~off ~len);
      go (off + len) (n + 1)
    end
  in
  go 0 0

let datatype_probes () =
  let inputs = dt_inputs () in
  let frag_ns =
    let ns, frags =
      List.fold_left
        (fun (ns, frags) i ->
          let plan = Plan.get i.dt in
          let once () =
            fragments plan ~bytes:(packed_bytes i) (fun cur ~off ~len ->
                Plan.pack_range ~cursor:cur plan ~count:i.count ~src:i.src ~packed_off:off
                  ~dst:(Buf.sub i.packed ~pos:off ~len))
          in
          (ns +. Timing.median_ns ~reps (fun () -> ignore (once ())), frags + once ()))
        (0., 0) inputs
    in
    ns /. float_of_int frags
  in
  let get_hit_ns =
    let i = List.hd inputs in
    ignore (Plan.get i.dt);
    let n = 100_000 in
    Timing.median_ns ~reps:5 (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Plan.get i.dt))
        done)
    /. float_of_int n
  in
  [
    m "datatype.pack_ns_per_byte" "ns/B"
      (ns_per_byte inputs (fun i ->
           ignore (Dt.pack i.dt ~count:i.count ~src:i.src ~dst:i.packed)));
    m "plan.pack_ns_per_byte" "ns/B"
      (ns_per_byte inputs (fun i ->
           ignore (Plan.pack (Plan.get i.dt) ~count:i.count ~src:i.src ~dst:i.packed)));
    m "plan.unpack_ns_per_byte" "ns/B"
      (ns_per_byte inputs (fun i ->
           Plan.unpack (Plan.get i.dt) ~count:i.count ~src:i.packed ~dst:i.sink));
    m "plan.pack_range_ns_per_frag" "ns" frag_ns;
    m "plan.build_us" "us"
      (mean
         (List.map
            (fun i -> Timing.median_ns ~reps (fun () -> ignore (Plan.build i.dt)) /. 1e3)
            inputs));
    m "plan.get_hit_ns" "ns" get_hit_ns;
    m "normalize.us_per_type" "us"
      (mean
         (List.map
            (fun i ->
              Timing.median_ns ~reps (fun () -> ignore (Normalize.run i.dt)) /. 1e3)
            inputs));
    m "custom.pack_ns_per_byte" "ns/B"
      (let with_custom = List.filter (fun i -> i.custom <> None) inputs in
       ns_per_byte with_custom (fun i -> ignore ((Option.get i.custom) ())));
    m "snapshot.encode_ns_per_byte" "ns/B"
      (ns_per_byte inputs (fun i -> ignore (snapshot i)));
    m "snapshot.decode_ns_per_byte" "ns/B"
      (let imgs = List.map (fun i -> (i, snapshot i)) inputs in
       ns_per_byte inputs (fun i ->
           ignore
             (Snapshot.decode_exn ~dt:i.dt ~count:i.count ~dst:i.sink
                (List.assq i imgs))));
  ]

let buf_probe () =
  let n = 4 * mib in
  let a = Buf.create n and b = Buf.create n in
  let ns =
    Timing.median_ns ~reps:21 (fun () ->
        Buf.blit ~src:a ~src_pos:0 ~dst:b ~dst_pos:0 ~len:n)
  in
  [ m "buf.blit_gbps" "GB/s" (float_of_int n /. ns) ]

(* --- serializers on the Fig. 8 / Fig. 9 object shapes (1 MiB each) *)

let serializer_probes () =
  let chunk = 128 * kib in
  let arrays = mib / chunk in
  let u8 n = Pickle.Ndarray (Pickle.ndarray ~dtype:Pickle.U8 [| n |]) in
  let objs =
    [
      u8 mib;
      Pickle.Dict
        [
          (Pickle.Str "kind", Pickle.Str "complex");
          (Pickle.Str "n", Pickle.Int (Int64.of_int arrays));
          (Pickle.Str "fields", Pickle.List (List.init arrays (fun _ -> u8 chunk)));
        ];
    ]
  in
  let schema = Serde.(triple string int (list buf)) in
  let values =
    [
      ("single", 0, [ Buf.create mib ]);
      ("complex", arrays, List.init arrays (fun _ -> Buf.create chunk));
    ]
  in
  (* Sum of per-shape medians over the 2 MiB of payload. *)
  let per_byte xs f =
    List.fold_left (fun acc x -> acc +. Timing.median_ns ~reps (fun () -> f x)) 0. xs
    /. float_of_int (2 * mib)
  in
  let dumped = List.map (fun o -> (o, Pickle.dumps o)) objs in
  let encoded = List.map (fun v -> (v, Serde.encode schema v)) values in
  [
    m "pickle.dumps_ns_per_byte" "ns/B"
      (per_byte objs (fun o -> ignore (Pickle.dumps o)));
    m "pickle.dumps_oob_ns_per_byte" "ns/B"
      (per_byte objs (fun o -> ignore (Pickle.dumps_oob o)));
    m "pickle.loads_ns_per_byte" "ns/B"
      (per_byte objs (fun o -> ignore (Pickle.loads (List.assq o dumped))));
    m "serde.encode_ns_per_byte" "ns/B"
      (per_byte values (fun v -> ignore (Serde.encode schema v)));
    m "serde.decode_ns_per_byte" "ns/B"
      (per_byte values (fun v -> ignore (Serde.decode schema (List.assq v encoded))));
  ]

(* --- event queue: the "hold" pattern at a fixed live-event level *)

let evq_hold_ns ~live =
  let ops = 500_000 in
  let once () =
    let q = Evq.create () in
    let s = ref 88172645463325252 in
    let next () =
      let x = !s in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      s := x;
      float_of_int (1 + (x land 1023))
    in
    for i = 1 to live do
      Evq.push q ~time:(next ()) ~seq:i ignore
    done;
    for i = 1 to ops do
      let t = Evq.min_time q in
      let f = Evq.pop_min q in
      f ();
      Evq.push q ~time:(t +. next ()) ~seq:(live + i) f
    done
  in
  Timing.median_ns ~reps:5 once /. float_of_int ops

(* --- engine fibers *)

let spawn_ns () =
  let n = 10_000 in
  Timing.median_ns ~reps:5 (fun () ->
      let e = Engine.create () in
      for _ = 1 to n do
        Engine.spawn e ignore
      done;
      Engine.run e)
  /. float_of_int n

(* [n] fibers park on one wait queue; a controller wakes them all,
   [rounds] times. *)
let suspend_resume_ns ~n =
  let rounds = 4 in
  Timing.median_ns ~reps:3 (fun () ->
      let e = Engine.create () in
      let q = Engine.Waitq.create () in
      for _ = 1 to n do
        Engine.spawn e (fun () ->
            for _ = 1 to rounds do
              Engine.Waitq.wait e q
            done)
      done;
      Engine.spawn e (fun () ->
          for _ = 1 to rounds do
            Engine.sleep e 1.;
            ignore (Engine.Waitq.broadcast q ())
          done);
      Engine.run e)
  /. float_of_int (n * rounds)

(* --- transport: [msgs] tagged messages between two workers *)

let ucx_ns_per_msg ?faults ~msgs send_dt recv_dt =
  Timing.median_ns ~reps:5 (fun () ->
      let engine = Engine.create () in
      let ctx =
        Ucx.create_context ~engine ~config:Config.default ~stats:(Stats.create ())
      in
      Ucx.set_faults ctx faults;
      let w0 = Ucx.create_worker ctx and w1 = Ucx.create_worker ctx in
      let ep = Ucx.connect w0 w1 in
      Engine.spawn engine (fun () ->
          for i = 1 to msgs do
            ignore (Ucx.wait (Ucx.tag_send ep ~tag:(Int64.of_int i) (send_dt ())))
          done);
      Engine.spawn engine (fun () ->
          for i = 1 to msgs do
            ignore
              (Ucx.wait (Ucx.tag_recv w1 ~tag:(Int64.of_int i) ~mask:(-1L) (recv_dt ())))
          done);
      Engine.run engine)
  /. float_of_int msgs

let generic_send size () =
  Ucx.Sd_generic
    {
      Ucx.sg_packed_size = size;
      sg_pack = (fun ~offset ~dst -> min (Buf.length dst) (size - offset));
      sg_finish = ignore;
      sg_overhead_ns = 0.;
    }

let generic_recv size () =
  Ucx.Rd_generic
    {
      Ucx.rg_capacity = size;
      rg_unpack = (fun ~offset:_ ~src -> Buf.length src);
      rg_finish = ignore;
      rg_overhead_ns = 0.;
    }

let ucx_probes () =
  let contig n =
    let s = Buf.create n and r = Buf.create n in
    ((fun () -> Ucx.Sd_contig s), fun () -> Ucx.Rd_contig r)
  in
  let eager_s, eager_r = contig 64 in
  let rndv_s, rndv_r = contig mib in
  let iov_s =
    let l = List.init 64 (fun _ -> Buf.create kib) in
    fun () -> Ucx.Sd_iov l
  and iov_r =
    let l = List.init 64 (fun _ -> Buf.create kib) in
    fun () -> Ucx.Rd_iov l
  in
  let lossy = Fault.make ~link:{ Fault.clean_link with Fault.drop_p = 0.05 } () in
  [
    m "ucx.eager_ns_per_msg" "ns" (ucx_ns_per_msg ~msgs:2000 eager_s eager_r);
    m "ucx.rndv_ns_per_msg" "ns" (ucx_ns_per_msg ~msgs:200 rndv_s rndv_r);
    m "ucx.iov_ns_per_msg" "ns" (ucx_ns_per_msg ~msgs:200 iov_s iov_r);
    m "ucx.generic_ns_per_msg" "ns"
      (ucx_ns_per_msg ~msgs:50 (generic_send mib) (generic_recv mib));
    m "ucx.faulty_eager_ns_per_msg" "ns"
      (ucx_ns_per_msg ~faults:lossy ~msgs:2000 eager_s eager_r);
  ]

(* --- MPI point-to-point and worlds *)

let create_world_us_per_rank ~size ~reps =
  Timing.median_ns ~reps (fun () ->
      ignore (Sys.opaque_identity (Mpi.create_world ~size ())))
  /. 1e3 /. float_of_int size

let sendrecv_ns () =
  let msgs = 2000 in
  Timing.median_ns ~reps:5 (fun () ->
      let w = Mpi.create_world ~size:2 () in
      Mpi.run w (fun comm ->
          let peer = 1 - Mpi.rank comm in
          let s = Buf.create 64 and r = Buf.create 64 in
          for _ = 1 to msgs do
            ignore
              (Mpi.sendrecv comm ~dst:peer ~send_tag:0 (Mpi.Bytes s) ~source:peer
                 ~recv_tag:0 (Mpi.Bytes r))
          done))
  /. float_of_int (2 * msgs)

(* Barriers in a 1024-rank world: a warm-up barrier, then [rounds]
   timed at rank 0 between consecutive returns; the median, in ms. *)
let barrier_ms () =
  let rounds = 5 in
  let w = Mpi.create_world ~size:1024 () in
  let times = ref [] in
  Mpi.run w (fun comm ->
      Collectives.barrier comm;
      let last = ref (Timing.now_ns ()) in
      for _ = 1 to rounds do
        Collectives.barrier comm;
        if Mpi.rank comm = 0 then begin
          let t = Timing.now_ns () in
          times := (t -. !last) :: !times;
          last := t
        end
      done);
  Timing.median (Array.of_list !times) /. 1e6

let mpi_probes () =
  [
    m "mpi.create_world_us_per_rank.4" "us" (create_world_us_per_rank ~size:4 ~reps:51);
    m "mpi.create_world_us_per_rank.4k" "us"
      (create_world_us_per_rank ~size:4096 ~reps:3);
    m "mpi.sendrecv_ns_per_msg" "ns" (sendrecv_ns ());
    m "collectives.barrier_ms.1k" "ms" (barrier_ms ());
  ]

(* --- layer consistency: one 1 MiB typed (generic-protocol) ping-pong
   against the plan and transport probes it decomposes into *)

let pingpong_explained () =
  let module S = B.Struct_simple in
  let count = S.count_for_packed_bytes mib in
  let bytes = Dt.packed_size S.derived ~count in
  let warmup = 1 and reps = 4 in
  let msgs = 2 * (warmup + reps) in
  let pingpong_ns =
    Timing.median_ns ~reps:3 (fun () ->
        ignore
          (Harness.pingpong ~warmup ~reps ~bytes (Methods.st_rsmpi (module S) ~count)))
    /. float_of_int msgs
  in
  let plan = Plan.get S.derived in
  let src = S.generate ~count and sink = S.make_sink ~count in
  let buf = Buf.create Config.default_link.Config.frag_size in
  let pack_ns =
    Timing.median_ns ~reps (fun () ->
        ignore
          (fragments plan ~bytes (fun cur ~off ~len ->
               Plan.pack_range ~cursor:cur plan ~count ~src ~packed_off:off
                 ~dst:(Buf.sub buf ~pos:0 ~len))))
  and unpack_ns =
    Timing.median_ns ~reps (fun () ->
        ignore
          (fragments plan ~bytes (fun cur ~off ~len ->
               Plan.unpack_range ~cursor:cur plan ~count ~src:(Buf.sub buf ~pos:0 ~len)
                 ~packed_off:off ~dst:sink)))
  in
  let ucx_ns = ucx_ns_per_msg ~msgs:20 (generic_send bytes) (generic_recv bytes) in
  m "ucx.pingpong_explained" "ratio" (pingpong_ns /. (pack_ns +. unpack_ns +. ucx_ns))

let all ~spans =
  let group name f = Spans.wrap spans ("probe." ^ name) f in
  let engine =
    group "engine" (fun () ->
        let evq1k = evq_hold_ns ~live:1024 and wake1k = suspend_resume_ns ~n:1024 in
        [
          m "evq.hold_ns_per_event.1k" "ns" evq1k;
          m "evq.hold_ns_per_event.4k" "ns" (evq_hold_ns ~live:4096);
          m "engine.spawn_ns" "ns" (spawn_ns ());
          m "engine.suspend_resume_ns.1k" "ns" wake1k;
          m "engine.suspend_resume_ns.4k" "ns" (suspend_resume_ns ~n:4096);
          m "engine.evq_share" "ratio" (evq1k /. wake1k);
        ])
  in
  let buf = group "buf" buf_probe in
  let datatype = group "datatype" datatype_probes in
  let serializers = group "serializers" serializer_probes in
  let ucx = group "ucx" ucx_probes in
  let mpi = group "mpi" mpi_probes in
  let explained = group "pingpong_explained" pingpong_explained in
  buf @ datatype @ serializers @ engine @ ucx @ mpi @ [ explained ]
