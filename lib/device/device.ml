module Buf = Mpicd_buf.Buf
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Plan = Mpicd_datatype.Plan
module Mpi = Mpicd.Mpi
module H = Mpicd_harness.Harness

type space = Host | Device

exception Space_mismatch of string

type buf = { b_space : space; b_data : Buf.t }

let create space n = { b_space = space; b_data = Buf.create n }
let space_of b = b.b_space
let data b = b.b_data
let length b = Buf.length b.b_data

let charge comm ns = Engine.sleep (Mpi.world_engine (Mpi.world_of comm)) ns
let gpu comm = (Mpi.world_config (Mpi.world_of comm)).gpu
let cpu comm = (Mpi.world_config (Mpi.world_of comm)).cpu

let transfer comm ~src ~dst =
  if length src <> length dst then
    invalid_arg "Device.transfer: length mismatch";
  let n = length src in
  Buf.blit ~src:src.b_data ~src_pos:0 ~dst:dst.b_data ~dst_pos:0 ~len:n;
  Stats.record_copy (Mpi.world_stats (Mpi.world_of comm)) n;
  let rate =
    match (src.b_space, dst.b_space) with
    | Host, Host -> (cpu comm).memcpy_ns_per_byte
    | Device, Device -> (gpu comm).hbm_ns_per_byte
    | Host, Device | Device, Host -> (gpu comm).pcie_ns_per_byte
  in
  charge comm (rate *. float_of_int n)

let same_space name a b =
  if a.b_space <> b.b_space then
    raise
      (Space_mismatch
         (Printf.sprintf "%s: buffers live in different memory spaces" name))

let kernel_costs comm space ~bytes ~pieces =
  match space with
  | Device ->
      let g = gpu comm in
      g.kernel_launch_ns
      +. (g.hbm_ns_per_byte *. float_of_int bytes)
      +. (g.gpu_piece_ns *. float_of_int pieces)
  | Host ->
      let c = cpu comm in
      (c.memcpy_ns_per_byte *. float_of_int bytes)
      +. (c.pack_piece_ns *. float_of_int pieces)

(* One kernel run moves the plan's bytes as its blocks. *)
let charge_kernel comm space plan =
  let n = Plan.size plan in
  Stats.record_copy (Mpi.world_stats (Mpi.world_of comm)) n;
  charge comm
    (kernel_costs comm space ~bytes:n ~pieces:(Plan.block_count plan))

let pack_kernel comm plan ~src ~dst =
  same_space "Device.pack_kernel" src dst;
  if length dst < Plan.size plan then
    invalid_arg "Device.pack_kernel: destination too small";
  ignore (Plan.pack plan ~count:1 ~src:src.b_data ~dst:dst.b_data);
  charge_kernel comm src.b_space plan

let unpack_kernel comm plan ~src ~dst =
  same_space "Device.unpack_kernel" src dst;
  Plan.unpack plan ~count:1 ~src:src.b_data ~dst:dst.b_data;
  charge_kernel comm src.b_space plan

type method_ = Staged_host_pack | Device_pack_staged | Device_pack_direct

let method_name = function
  | Staged_host_pack -> "staged-host-pack"
  | Device_pack_staged -> "device-pack-staged"
  | Device_pack_direct -> "device-pack-direct"

(* A ping-pong side: the application data lives on the device; each
   send must deliver the plan's bytes into the peer's device slab. *)
let exchange_impl method_ ~plan ~slab_bytes () =
  let wire = Plan.size plan in
  let dev_slab = create Device slab_bytes in
  Mpicd_ddtbench.Kernel.fill dev_slab.b_data;
  let dev_packed = create Device wire in
  let host_slab = create Host slab_bytes in
  let host_packed = create Host wire in
  let send comm ~dst ~tag =
    match method_ with
    | Staged_host_pack ->
        (* D2H the whole slab, then a host pack, then an ordinary send *)
        transfer comm ~src:dev_slab ~dst:host_slab;
        pack_kernel comm plan ~src:host_slab ~dst:host_packed;
        Mpi.send comm ~dst ~tag (Mpi.Bytes (data host_packed))
    | Device_pack_staged ->
        (* pack with a device kernel, stage only the packed bytes *)
        pack_kernel comm plan ~src:dev_slab ~dst:dev_packed;
        transfer comm ~src:dev_packed ~dst:host_packed;
        Mpi.send comm ~dst ~tag (Mpi.Bytes (data host_packed))
    | Device_pack_direct ->
        (* pack with a device kernel; the NIC reads device memory *)
        pack_kernel comm plan ~src:dev_slab ~dst:dev_packed;
        Mpi.send comm ~dst ~tag (Mpi.Bytes (data dev_packed))
  in
  let recv comm ~source ~tag =
    match method_ with
    | Staged_host_pack ->
        ignore (Mpi.recv comm ~source ~tag (Mpi.Bytes (data host_packed)));
        unpack_kernel comm plan ~src:host_packed ~dst:host_slab;
        transfer comm ~src:host_slab ~dst:dev_slab
    | Device_pack_staged ->
        ignore (Mpi.recv comm ~source ~tag (Mpi.Bytes (data host_packed)));
        transfer comm ~src:host_packed ~dst:dev_packed;
        unpack_kernel comm plan ~src:dev_packed ~dst:dev_slab
    | Device_pack_direct ->
        ignore (Mpi.recv comm ~source ~tag (Mpi.Bytes (data dev_packed)));
        unpack_kernel comm plan ~src:dev_packed ~dst:dev_slab
  in
  { H.send; H.recv }
