(* Figures 1–7: the Rust benchmark types over the mpicd prototype
   (paper §V-A).  Each function regenerates one figure as Report
   series; sizes follow the paper's axes. *)

module H = Mpicd_harness.Harness
module Report = Mpicd_harness.Report
module B = Mpicd_bench_types.Bench_types

(* average of four runs, as in the paper *)
let reps = 4

let pow2 lo hi = List.init (hi - lo + 1) (fun i -> 1 lsl (lo + i))

let measure ~bytes make = H.pingpong ~warmup:1 ~reps ~bytes make
let latency (r : H.result) = r.latency_us
let bandwidth (r : H.result) = r.bandwidth_mib_s

(* Every figure below is measured point by point: the methods of one
   point share the source and sink built for it.  Each pingpong is its
   own world, so the order of measurement changes no value. *)

let dv_labels = [ "custom"; "manual-pack"; "rsmpi-bytes-baseline" ]

(* One double-vec point: custom and manual-pack on one input pair, then
   the contiguous byte baseline. *)
let dv_point value ~subvec ~total =
  let inputs = Methods.dv_inputs ~subvec ~total in
  let v make = value (measure ~bytes:total make) in
  [
    v (Methods.dv_custom ~inputs ~subvec ~total);
    v (Methods.dv_manual ~inputs ~subvec ~total);
    v (Methods.bytes_baseline ~total);
  ]

(* Fig. 1: double-vec latency while varying the subvector size from
   64 B to 4 KiB (fixed 64 KiB message).  Expected shape: custom falls
   as subvectors grow and crosses below manual-pack near 2^9 B;
   manual-pack is insensitive to the subvector size; the raw byte
   baseline is lowest. *)
let fig1 () =
  let total = 64 * 1024 in
  Report.of_rows dv_labels
    (List.map
       (fun subvec -> (subvec, dv_point latency ~subvec ~total))
       [ 64; 128; 256; 512; 1024; 2048; 4096 ])

(* Fig. 2: double-vec bandwidth, subvector size 1024 B. *)
let fig2 () =
  Report.of_rows dv_labels
    (List.map (fun n -> (n, dv_point bandwidth ~subvec:1024 ~total:n)) (pow2 10 22))

(* Figs. 3/4: struct-vec — counts chosen so the packed size (~8212 B
   per element) matches the x value. *)
let struct_series value (module S : B.STRUCT) ~sizes =
  let m = (module S : B.STRUCT) in
  Report.of_rows [ "custom"; "manual-pack"; "rsmpi-derived-datatype" ]
    (List.map
       (fun n ->
         let count = S.count_for_packed_bytes n in
         let bytes = count * S.packed_elem_size in
         let inputs = Methods.st_inputs m ~count in
         let v make = value (measure ~bytes make) in
         ( bytes,
           [
             v (Methods.st_custom ~inputs m ~count);
             v (Methods.st_manual ~inputs m ~count);
             v (Methods.st_rsmpi ~inputs m ~count);
           ] ))
       sizes)

let fig3 () = struct_series latency (module B.Struct_vec) ~sizes:(pow2 13 22)
let fig4 () = struct_series bandwidth (module B.Struct_vec) ~sizes:(pow2 15 22)
let fig5 () = struct_series latency (module B.Struct_simple) ~sizes:(pow2 6 19)

let fig6 () =
  struct_series latency (module B.Struct_simple_no_gap) ~sizes:(pow2 6 19)

let fig7 () =
  struct_series bandwidth (module B.Struct_simple) ~sizes:(pow2 10 22)

let all : (string * string * string * (unit -> Report.series list)) list =
  [
    ("fig1", "Fig. 1: double-vec latency vs subvector size (64 KiB msg)", "latency us", fig1);
    ("fig2", "Fig. 2: double-vec bandwidth (subvec 1 KiB)", "MiB/s", fig2);
    ("fig3", "Fig. 3: struct-vec latency", "latency us", fig3);
    ("fig4", "Fig. 4: struct-vec bandwidth", "MiB/s", fig4);
    ("fig5", "Fig. 5: struct-simple latency", "latency us", fig5);
    ("fig6", "Fig. 6: struct-simple-no-gap latency", "latency us", fig6);
    ("fig7", "Fig. 7: struct-simple bandwidth", "MiB/s", fig7);
  ]
