type link = {
  latency_ns : float;
  ns_per_byte : float;
  per_msg_overhead_ns : float;
  eager_limit : int;
  rndv_handshake_ns : float;
  rndv_reg_ns : float;
  iov_entry_ns : float;
  iov_max_entries : int;
  frag_size : int;
}

type cpu = {
  memcpy_ns_per_byte : float;
  alloc_base_ns : float;
  alloc_ns_per_byte : float;
  pack_cb_overhead_ns : float;
  pack_piece_ns : float;
  ddt_block_ns : float;
  ddt_node_ns : float;
  object_visit_ns : float;
}

type gpu = {
  pcie_ns_per_byte : float;
  kernel_launch_ns : float;
  hbm_ns_per_byte : float;
  gpu_piece_ns : float;
}

type t = {
  link : link;
  cpu : cpu;
  gpu : gpu;
}

(* 100 Gb/s = 12.5 GB/s raw; ~11.5 GB/s effective after protocol
   headers -> 0.087 ns/B.  Base latency ~1.3 us as measured for small
   RDMA messages on ConnectX-5. *)
let default_link =
  {
    latency_ns = 1300.;
    ns_per_byte = 0.087;
    per_msg_overhead_ns = 250.;
    eager_limit = 30_000;
    (* just under the 2^15-byte sample of the paper's sweeps: the
       manual-pack bandwidth dip lands on the same x position *)
    rndv_handshake_ns = 5000.;
    rndv_reg_ns = 400.;
    iov_entry_ns = 120.;
    iov_max_entries = 64;
    frag_size = 8192;
  }

(* EPYC 7232P single-thread copy ~20 GB/s for message-sized buffers
   -> 0.05 ns/B (kept below the neutral eager/rendezvous point so the
   protocol switch shows the bandwidth dip the paper observes);
   fresh large allocations fault pages in at ~12 GB/s -> 0.08 ns/B,
   which is what makes buffer-doubling methods pay at scale. *)
let default_cpu =
  {
    memcpy_ns_per_byte = 0.05;
    alloc_base_ns = 180.;
    alloc_ns_per_byte = 0.08;
    pack_cb_overhead_ns = 80.;
    pack_piece_ns = 1.;
    ddt_block_ns = 18.;
    (* commit-time cost of visiting one descriptor tree node or index
       array entry: type_commit flattening, plan compilation, and (on
       device paths) kernel-parameter marshalling all walk the
       descriptor, so deep or index-heavy trees pay this per node. *)
    ddt_node_ns = 25.;
    object_visit_ns = 120.;
  }

(* PCIe gen4 x16 ~25 GB/s staging; ~3 us kernel launch; HBM2e pack
   kernels stream at ~200 GB/s effective with massive parallelism over
   small pieces. *)
let default_gpu =
  {
    pcie_ns_per_byte = 0.04;
    kernel_launch_ns = 3000.;
    hbm_ns_per_byte = 0.005;
    gpu_piece_ns = 0.05;
  }

let default =
  {
    link = default_link;
    cpu = default_cpu;
    gpu = default_gpu;
  }

let wire_time (l : link) bytes = l.ns_per_byte *. float_of_int bytes
let memcpy_time (c : cpu) bytes = c.memcpy_ns_per_byte *. float_of_int bytes

let alloc_time (c : cpu) bytes =
  c.alloc_base_ns +. (c.alloc_ns_per_byte *. float_of_int bytes)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>link: latency=%.0fns bw=%.3fns/B eager<=%dB rndv=+%.0fns \
     iov=%.0fns/entry(max %d) frag=%dB@,\
     cpu: memcpy=%.3fns/B alloc=%.0f+%.3fns/B packcb=%.0fns piece=%.1fns \
     ddtblock=%.0fns ddtnode=%.0fns objvisit=%.0fns@]"
    t.link.latency_ns t.link.ns_per_byte t.link.eager_limit
    t.link.rndv_handshake_ns t.link.iov_entry_ns t.link.iov_max_entries
    t.link.frag_size t.cpu.memcpy_ns_per_byte t.cpu.alloc_base_ns
    t.cpu.alloc_ns_per_byte t.cpu.pack_cb_overhead_ns t.cpu.pack_piece_ns
    t.cpu.ddt_block_ns t.cpu.ddt_node_ns t.cpu.object_visit_ns
