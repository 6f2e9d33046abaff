(* Transfer-method implementations shared by the figure generators:
   every method the paper's §V compares, as Harness.impl builders. *)

module Buf = Mpicd_buf.Buf
module Plan = Mpicd_datatype.Plan
module Mpi = Mpicd.Mpi
module H = Mpicd_harness.Harness
module B = Mpicd_bench_types.Bench_types
module DV = B.Double_vec
module Kernel = Mpicd_ddtbench.Kernel

(* --- shared inputs --- *)

type 'a inputs = { src : 'a; sink : 'a }
type slabs = Buf.t inputs

let zero b = Buf.fill b '\000'

(* A method handed [inputs] shares them with every other method handed
   the same: each starts from a sink it zeroes when built.  Without
   them it builds its own, which start zeroed. *)
let own ~zero_sink fresh = function
  | None -> fresh ()
  | Some inputs ->
      zero_sink inputs.sink;
      inputs

(* --- double-vec (Vec<Vec<i32>>) --- *)

let dv_inputs ~subvec ~total =
  {
    src = DV.generate ~subvec_bytes:subvec ~total_bytes:total;
    sink = DV.make_sink ~subvec_bytes:subvec ~total_bytes:total;
  }

let dv_own ~subvec ~total =
  own ~zero_sink:DV.clear (fun () -> dv_inputs ~subvec ~total)

let dv_custom ?inputs ~subvec ~total () =
  let { src; sink } = dv_own ~subvec ~total inputs in
  {
    H.send =
      (fun comm ~dst ~tag ->
        Mpi.send comm ~dst ~tag
          (Mpi.Custom { dt = DV.custom_dt; obj = src; count = 1 }));
    H.recv =
      (fun comm ~source ~tag ->
        ignore
          (Mpi.recv comm ~source ~tag
             (Mpi.Custom { dt = DV.custom_dt; obj = sink; count = 1 })));
  }

let dv_manual ?inputs ~subvec ~total () =
  let { src; sink } = dv_own ~subvec ~total inputs in
  let psize = DV.manual_pack_size src in
  let nvec = Array.length src in
  {
    H.send =
      (fun comm ~dst ~tag ->
        let buf = H.charged_alloc comm psize in
        DV.manual_pack src ~dst:buf;
        H.charge_copy comm total;
        H.charge_pieces comm nvec;
        Mpi.send comm ~dst ~tag (Mpi.Bytes buf);
        H.charged_free comm buf);
    H.recv =
      (fun comm ~source ~tag ->
        let buf = H.charged_alloc comm psize in
        ignore (Mpi.recv comm ~source ~tag (Mpi.Bytes buf));
        DV.manual_unpack ~src:buf sink;
        H.charge_copy comm total;
        H.charge_pieces comm nvec;
        H.charged_free comm buf);
  }

(* Send [src], receive into [sink]: one contiguous buffer each way. *)
let bytes_impl src sink =
  {
    H.send = (fun comm ~dst ~tag -> Mpi.send comm ~dst ~tag (Mpi.Bytes src));
    H.recv =
      (fun comm ~source ~tag -> ignore (Mpi.recv comm ~source ~tag (Mpi.Bytes sink)));
  }

(* The paper's rsmpi-bytes-baseline: RSMPI cannot express Vec<Vec<i32>>,
   so the absolute baseline just moves the same bytes contiguously. *)
let bytes_baseline ~total () =
  let src = Buf.create total in
  Kernel.fill src;
  bytes_impl src (Buf.create total)

(* --- the struct types --- *)

let st_inputs (module S : B.STRUCT) ~count =
  { src = S.generate ~count; sink = S.make_sink ~count }

let st_own m ~count = own ~zero_sink:zero (fun () -> st_inputs m ~count)

let st_custom ?inputs (module S : B.STRUCT) ~count () =
  let { src; sink } = st_own (module S : B.STRUCT) ~count inputs in
  {
    H.send =
      (fun comm ~dst ~tag ->
        Mpi.send comm ~dst ~tag (Mpi.Custom { dt = S.custom_dt; obj = src; count }));
    H.recv =
      (fun comm ~source ~tag ->
        ignore
          (Mpi.recv comm ~source ~tag
             (Mpi.Custom { dt = S.custom_dt; obj = sink; count })));
  }

let st_manual ?inputs (module S : B.STRUCT) ~count () =
  let { src; sink } = st_own (module S : B.STRUCT) ~count inputs in
  let psize = count * S.packed_elem_size in
  let pieces = count * max 1 S.pieces_per_elem in
  {
    H.send =
      (fun comm ~dst ~tag ->
        let buf = H.charged_alloc comm psize in
        S.manual_pack src ~count ~dst:buf;
        H.charge_copy comm psize;
        H.charge_pieces comm pieces;
        Mpi.send comm ~dst ~tag (Mpi.Bytes buf);
        H.charged_free comm buf);
    H.recv =
      (fun comm ~source ~tag ->
        let buf = H.charged_alloc comm psize in
        ignore (Mpi.recv comm ~source ~tag (Mpi.Bytes buf));
        S.manual_unpack ~src:buf sink ~count;
        H.charge_copy comm psize;
        H.charge_pieces comm pieces;
        H.charged_free comm buf);
  }

let st_rsmpi ?inputs (module S : B.STRUCT) ~count () =
  let { src; sink } = st_own (module S : B.STRUCT) ~count inputs in
  {
    H.send =
      (fun comm ~dst ~tag ->
        Mpi.send comm ~dst ~tag (Mpi.Typed { dt = S.derived; count; base = src }));
    H.recv =
      (fun comm ~source ~tag ->
        ignore
          (Mpi.recv comm ~source ~tag
             (Mpi.Typed { dt = S.derived; count; base = sink })));
  }

(* --- DDTBench kernels (Fig. 10 methods) --- *)

let slabs (module K : Kernel.KERNEL) = { src = K.create (); sink = K.create_sink () }

(* Every method of a row shares the row's slabs; each starts from an
   all-zero sink. *)
let sink_of { sink; _ } =
  zero sink;
  sink

(* The reference moves the first [wire_bytes] of the row's slabs. *)
let k_reference (module K : Kernel.KERNEL) slabs () =
  let prefix b = Buf.sub b ~pos:0 ~len:K.wire_bytes in
  bytes_impl (prefix slabs.src) (prefix (sink_of slabs))

let k_manual (module K : Kernel.KERNEL) slabs () =
  let src = slabs.src and sink = sink_of slabs in
  let pieces = Plan.block_count K.plan in
  {
    H.send =
      (fun comm ~dst ~tag ->
        let buf = H.charged_alloc comm K.wire_bytes in
        K.manual_pack src ~dst:buf;
        H.charge_copy comm K.wire_bytes;
        H.charge_pieces comm pieces;
        Mpi.send comm ~dst ~tag (Mpi.Bytes buf);
        H.charged_free comm buf);
    H.recv =
      (fun comm ~source ~tag ->
        let buf = H.charged_alloc comm K.wire_bytes in
        ignore (Mpi.recv comm ~source ~tag (Mpi.Bytes buf));
        K.manual_unpack ~src:buf sink;
        H.charge_copy comm K.wire_bytes;
        H.charge_pieces comm pieces;
        H.charged_free comm buf);
  }

let k_ddt_direct (module K : Kernel.KERNEL) slabs () =
  let src = slabs.src and sink = sink_of slabs in
  {
    H.send =
      (fun comm ~dst ~tag ->
        Mpi.send comm ~dst ~tag (Mpi.Typed { dt = K.derived; count = 1; base = src }));
    H.recv =
      (fun comm ~source ~tag ->
        ignore
          (Mpi.recv comm ~source ~tag
             (Mpi.Typed { dt = K.derived; count = 1; base = sink })));
  }

(* MPI_Pack into a contiguous buffer, send as bytes, MPI_Unpack.  The
   kernel's compiled plan packs the bytes [Datatype.pack] would; the charge
   stays the interpreter's block count, which is the plan's entry
   count. *)
let k_ddt_pack (module K : Kernel.KERNEL) slabs () =
  let src = slabs.src and sink = sink_of slabs in
  let blocks = Plan.block_count K.plan in
  {
    H.send =
      (fun comm ~dst ~tag ->
        let buf = H.charged_alloc comm K.wire_bytes in
        ignore (Plan.pack K.plan ~count:1 ~src ~dst:buf);
        H.charge_copy comm K.wire_bytes;
        H.charge_ddt_blocks comm blocks;
        Mpi.send comm ~dst ~tag (Mpi.Bytes buf);
        H.charged_free comm buf);
    H.recv =
      (fun comm ~source ~tag ->
        let buf = H.charged_alloc comm K.wire_bytes in
        ignore (Mpi.recv comm ~source ~tag (Mpi.Bytes buf));
        Plan.unpack K.plan ~count:1 ~src:buf ~dst:sink;
        H.charge_copy comm K.wire_bytes;
        H.charge_ddt_blocks comm blocks;
        H.charged_free comm buf);
  }

let custom_impl dt slabs =
  let src = slabs.src and sink = sink_of slabs in
  {
    H.send =
      (fun comm ~dst ~tag ->
        Mpi.send comm ~dst ~tag (Mpi.Custom { dt; obj = src; count = 1 }));
    H.recv =
      (fun comm ~source ~tag ->
        ignore
          (Mpi.recv comm ~source ~tag (Mpi.Custom { dt; obj = sink; count = 1 })));
  }

let k_custom_pack (module K : Kernel.KERNEL) slabs () =
  custom_impl K.custom_pack slabs

let k_custom_regions (module K : Kernel.KERNEL) slabs =
  Option.map (fun dt () -> custom_impl dt slabs) K.custom_regions

let kernel_methods k slabs =
  [
    ("reference", Some (k_reference k slabs));
    ("manual-pack", Some (k_manual k slabs));
    ("mpi-ddt", Some (k_ddt_direct k slabs));
    ("mpi-pack-ddt", Some (k_ddt_pack k slabs));
    ("custom-pack", Some (k_custom_pack k slabs));
    ("custom-regions", k_custom_regions k slabs);
  ]
