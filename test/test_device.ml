(* Tests for the accelerator-memory extension. *)

module Buf = Mpicd_buf.Buf
module Engine = Mpicd_simnet.Engine
module Plan = Mpicd_datatype.Plan
module Mpi = Mpicd.Mpi
module D = Mpicd_device.Device
module H = Mpicd_harness.Harness

let check_int = Alcotest.(check int)

(* a sparse strided layout: 16 KiB of halo data scattered through a
   256 KiB slab (staging the whole slab is 16x the useful bytes) *)
let plan =
  Plan.build
    (Mpicd_datatype.Datatype.hvector ~count:64 ~blocklength:256 ~stride_bytes:4096
       Mpicd_datatype.Datatype.byte)

let wire = Plan.size plan

(* Whether two slabs hold the same bytes in the layout's blocks. *)
let covered_equal a b =
  let pack src =
    let dst = Buf.create wire in
    ignore (Plan.pack plan ~count:1 ~src ~dst);
    dst
  in
  Buf.equal (pack a) (pack b)

let slab_bytes = 256 * 1024

let in_world f =
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm -> if Mpi.rank comm = 0 then f comm);
  w

let test_transfer_roundtrip () =
  ignore
    (in_world (fun comm ->
         let d = D.create D.Device 1000 in
         Mpicd_ddtbench.Kernel.fill (D.data d);
         let h = D.create D.Host 1000 in
         D.transfer comm ~src:d ~dst:h;
         Alcotest.(check bool) "D2H" true (Buf.equal (D.data d) (D.data h));
         let d2 = D.create D.Device 1000 in
         D.transfer comm ~src:h ~dst:d2;
         Alcotest.(check bool) "H2D" true (Buf.equal (D.data h) (D.data d2))))

let test_transfer_length_mismatch () =
  ignore
    (in_world (fun comm ->
         match
           D.transfer comm ~src:(D.create D.Host 4) ~dst:(D.create D.Host 8)
         with
         | () -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ()))

let test_pack_kernel_correct () =
  ignore
    (in_world (fun comm ->
         let src = D.create D.Device slab_bytes in
         Mpicd_ddtbench.Kernel.fill (D.data src);
         let packed = D.create D.Device wire in
         D.pack_kernel comm plan ~src ~dst:packed;
         (* reference pack on plain memory, one block at a time *)
         let expect = Buf.create wire in
         for i = 0 to 63 do
           Buf.blit ~src:(D.data src) ~src_pos:(i * 4096) ~dst:expect
             ~dst_pos:(i * 256) ~len:256
         done;
         Alcotest.(check bool) "device pack = reference" true
           (Buf.equal expect (D.data packed));
         (* scatter back into a fresh slab *)
         let sink = D.create D.Device slab_bytes in
         D.unpack_kernel comm plan ~src:packed ~dst:sink;
         Alcotest.(check bool) "roundtrip" true
           (covered_equal (D.data src) (D.data sink))))

let test_space_mismatch () =
  ignore
    (in_world (fun comm ->
         let src = D.create D.Device slab_bytes in
         let dst = D.create D.Host wire in
         match D.pack_kernel comm plan ~src ~dst with
         | () -> Alcotest.fail "expected Space_mismatch"
         | exception D.Space_mismatch _ -> ()))

let test_cost_ordering () =
  (* PCIe staging is slower than HBM, which is slower than nothing *)
  let time_of f =
    let w = Mpi.create_world ~size:1 () in
    let t = ref 0. in
    Mpi.run w (fun comm ->
        let t0 = Engine.now (Mpi.world_engine w) in
        f comm;
        t := Engine.now (Mpi.world_engine w) -. t0);
    !t
  in
  let n = 1 lsl 20 in
  let d2h =
    time_of (fun comm ->
        D.transfer comm ~src:(D.create D.Device n) ~dst:(D.create D.Host n))
  in
  let d2d =
    time_of (fun comm ->
        D.transfer comm ~src:(D.create D.Device n) ~dst:(D.create D.Device n))
  in
  Alcotest.(check bool)
    (Printf.sprintf "PCIe (%.0fns) slower than HBM (%.0fns)" d2h d2d)
    true (d2h > 2. *. d2d)

let method_bw m =
  (H.pingpong ~reps:3 ~bytes:wire (D.exchange_impl m ~plan ~slab_bytes))
    .H.bandwidth_mib_s

let test_methods_ordering () =
  (* sparse layout (6% dense): staging the whole slab loses to device
     packing; skipping the D2H staging of packed bytes is best *)
  let staged = method_bw D.Staged_host_pack in
  let dev_staged = method_bw D.Device_pack_staged in
  let direct = method_bw D.Device_pack_direct in
  Alcotest.(check bool)
    (Printf.sprintf "device pack (%.0f) beats host staging (%.0f)" dev_staged
       staged)
    true (dev_staged > staged);
  Alcotest.(check bool)
    (Printf.sprintf "direct (%.0f) beats staged (%.0f)" direct dev_staged)
    true (direct > dev_staged)

let test_exchange_delivers () =
  (* replicate the send/recv paths with separate buffers and verify the
     typed bytes arrive on the peer's device *)
  let w = Mpi.create_world ~size:2 () in
  let reference = Buf.create slab_bytes in
  Mpicd_ddtbench.Kernel.fill reference;
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        let src = D.create D.Device slab_bytes in
        Buf.blit ~src:reference ~src_pos:0 ~dst:(D.data src) ~dst_pos:0
          ~len:slab_bytes;
        let packed = D.create D.Device wire in
        D.pack_kernel comm plan ~src ~dst:packed;
        Mpi.send comm ~dst:1 ~tag:0 (Mpi.Bytes (D.data packed))
      end
      else begin
        let packed = D.create D.Device wire in
        ignore (Mpi.recv comm ~source:0 ~tag:0 (Mpi.Bytes (D.data packed)));
        let sink = D.create D.Device slab_bytes in
        D.unpack_kernel comm plan ~src:packed ~dst:sink;
        Alcotest.(check bool) "typed bytes on peer device" true
          (covered_equal reference (D.data sink))
      end)

(* A device pack kernel moves and charges the plan's bytes as its
   blocks: one launch, [Plan.size] bytes at HBM rate and
   [Plan.block_count] pieces. *)
let test_pack_kernel_charges_plan () =
  let w = Mpi.create_world ~size:1 () in
  let elapsed = ref 0. in
  Mpi.run w (fun comm ->
      let src = D.create D.Device slab_bytes and dst = D.create D.Device wire in
      let t0 = Engine.now (Mpi.world_engine w) in
      D.pack_kernel comm plan ~src ~dst;
      elapsed := Engine.now (Mpi.world_engine w) -. t0);
  let g = (Mpi.world_config w).gpu in
  let want =
    g.kernel_launch_ns
    +. (g.hbm_ns_per_byte *. float_of_int wire)
    +. (g.gpu_piece_ns *. 64.)
  in
  check_int "bytes recorded" wire
    (Mpicd_simnet.Stats.get (Mpi.world_stats w) Bytes_copied);
  Alcotest.(check (float 1e-9)) "charged" want !elapsed

let suite =
  let tc = Alcotest.test_case in
  ( "device",
    [
      tc "transfer roundtrips across spaces" `Quick test_transfer_roundtrip;
      tc "transfer length mismatch" `Quick test_transfer_length_mismatch;
      tc "pack kernel correct" `Quick test_pack_kernel_correct;
      tc "space mismatch rejected" `Quick test_space_mismatch;
      tc "cost ordering PCIe vs HBM" `Quick test_cost_ordering;
      tc "method ordering (sparse layout)" `Quick test_methods_ordering;
      tc "device exchange delivers" `Quick test_exchange_delivers;
      tc "pack kernel charges its plan" `Quick test_pack_kernel_charges_plan;
    ] )
