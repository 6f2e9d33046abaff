(* Integration tests asserting the paper's qualitative claims — the
   shapes EXPERIMENTS.md documents — at reduced scale so they run in
   the test suite. *)

module Config = Mpicd_simnet.Config
module Mpi = Mpicd.Mpi
module H = Mpicd_harness.Harness
module B = Mpicd_bench_types.Bench_types
module Methods = Mpicd_figures.Methods
module Objmsg = Mpicd_objmsg.Objmsg
module P = Mpicd_pickle.Pickle
module Registry = Mpicd_ddtbench.Registry
module Kernel = Mpicd_ddtbench.Kernel

let reps = 3

let lat ~bytes make = (H.pingpong ~reps ~bytes make).H.latency_us
let bw ~bytes make = (H.pingpong ~reps ~bytes make).H.bandwidth_mib_s

let check_order name slower faster =
  Alcotest.(check bool)
    (Printf.sprintf "%s (%.2f should exceed %.2f)" name slower faster)
    true (slower > faster)

(* Fig. 1: at a fixed 64 KiB message, custom beats manual-pack for
   large subvectors and loses for tiny ones; crossover near 2^9. *)
let test_fig1_shape () =
  let total = 64 * 1024 in
  let custom subvec = lat ~bytes:total (Methods.dv_custom ~subvec ~total) in
  let manual = lat ~bytes:total (Methods.dv_manual ~subvec:1024 ~total) in
  let baseline = lat ~bytes:total (Methods.bytes_baseline ~total) in
  check_order "custom-64 worse than manual-pack" (custom 64) manual;
  check_order "manual-pack worse than custom-4K" manual (custom 4096);
  check_order "custom-4K worse than raw baseline" (custom 4096) baseline;
  check_order "custom improves with subvector size" (custom 64) (custom 1024)

(* Fig. 2: at large sizes the custom method's zero-copy regions beat
   manual packing; the raw-bytes baseline beats both. *)
let test_fig2_shape () =
  let total = 4 * 1024 * 1024 in
  let custom = bw ~bytes:total (Methods.dv_custom ~subvec:1024 ~total) in
  let manual = bw ~bytes:total (Methods.dv_manual ~subvec:1024 ~total) in
  let baseline = bw ~bytes:total (Methods.bytes_baseline ~total) in
  check_order "custom > manual-pack" custom manual;
  check_order "baseline > custom" baseline custom;
  Alcotest.(check bool) "custom wins by a meaningful factor" true
    (custom > manual *. 1.15)

(* Fig. 3: custom latency is higher than the derived datatype for a
   single small struct-vec element, and converges at large counts. *)
let test_fig3_shape () =
  let one = B.Struct_vec.packed_elem_size in
  let custom1 = lat ~bytes:one (Methods.st_custom (module B.Struct_vec) ~count:1) in
  let rsmpi1 = lat ~bytes:one (Methods.st_rsmpi (module B.Struct_vec) ~count:1) in
  check_order "custom worse at small size" custom1 rsmpi1;
  let count = 64 in
  let bytes = count * one in
  let custom = lat ~bytes (Methods.st_custom (module B.Struct_vec) ~count) in
  let rsmpi = lat ~bytes (Methods.st_rsmpi (module B.Struct_vec) ~count) in
  let manual = lat ~bytes (Methods.st_manual (module B.Struct_vec) ~count) in
  Alcotest.(check bool) "custom within 40% of rsmpi at 512K" true
    (custom < rsmpi *. 1.4);
  check_order "manual-pack worst at 512K" manual custom

(* Fig. 5 vs Fig. 6: the C-layout gap is what makes the derived
   datatype slow; removing it restores Open MPI's performance. *)
let test_fig5_fig6_shape () =
  let count = 1600 (* 32 KB packed *) in
  let bytes = count * B.Struct_simple.packed_elem_size in
  let rsmpi_gap = lat ~bytes (Methods.st_rsmpi (module B.Struct_simple) ~count) in
  let custom_gap = lat ~bytes (Methods.st_custom (module B.Struct_simple) ~count) in
  let manual_gap = lat ~bytes (Methods.st_manual (module B.Struct_simple) ~count) in
  check_order "Fig5: rsmpi much worse than custom" rsmpi_gap (custom_gap *. 1.5);
  check_order "Fig5: rsmpi much worse than manual" rsmpi_gap (manual_gap *. 1.5);
  let count = 2048 and one = B.Struct_simple_no_gap.packed_elem_size in
  let bytes = count * one in
  let rsmpi_ng =
    lat ~bytes (Methods.st_rsmpi (module B.Struct_simple_no_gap) ~count)
  in
  let manual_ng =
    lat ~bytes (Methods.st_manual (module B.Struct_simple_no_gap) ~count)
  in
  check_order "Fig6: without the gap rsmpi beats manual packing" manual_ng
    rsmpi_ng

(* Fig. 7: manual-pack (a contiguous byte-stream send) dips at the
   eager->rendezvous switch; the custom iov path does not. *)
let test_fig7_dip () =
  let limit = Config.default.link.eager_limit in
  let below_count = limit / B.Struct_simple.packed_elem_size in
  let above_count = below_count + 64 in
  let m count =
    bw
      ~bytes:(count * B.Struct_simple.packed_elem_size)
      (Methods.st_manual (module B.Struct_simple) ~count)
  in
  let c count =
    bw
      ~bytes:(count * B.Struct_simple.packed_elem_size)
      (Methods.st_custom (module B.Struct_simple) ~count)
  in
  check_order "manual-pack dips just above the eager limit" (m below_count)
    (m above_count);
  Alcotest.(check bool) "custom does not dip" true
    (c above_count >= c below_count *. 0.98)

(* Figs. 8/9: out-of-band strategies beat basic pickle for large
   objects; nobody reaches the roofline (receive-side allocation). *)
let python_shape make_obj total =
  let payload = P.payload_bytes (make_obj ()) in
  let strat s () =
    let obj = make_obj () in
    {
      H.send = (fun comm ~dst ~tag -> Objmsg.send s comm ~dst ~tag obj);
      H.recv =
        (fun comm ~source ~tag -> ignore (Objmsg.recv s comm ~source ~tag ()));
    }
  in
  let basic = bw ~bytes:payload (strat Objmsg.Pickle_basic) in
  let oob = bw ~bytes:payload (strat Objmsg.Pickle_oob) in
  let cdt = bw ~bytes:payload (strat Objmsg.Pickle_oob_cdt) in
  let roofline = bw ~bytes:payload (Methods.bytes_baseline ~total:payload) in
  ignore total;
  check_order "oob-cdt > basic" cdt basic;
  check_order "oob > basic" oob basic;
  check_order "roofline above cdt" roofline cdt;
  check_order "roofline above oob" roofline oob

let test_fig8_shape () =
  let n = 4 * 1024 * 1024 in
  python_shape (fun () -> P.Ndarray (P.ndarray ~dtype:P.U8 [| n |])) n

let test_fig9_shape () =
  let n = 4 * 1024 * 1024 in
  python_shape
    (fun () ->
      P.List
        (List.init (n / (128 * 1024)) (fun _ ->
             P.Ndarray (P.ndarray ~dtype:P.U8 [| 128 * 1024 |]))))
    n

(* Fig. 9 detail: oob-cdt needs 2 messages where plain oob needs one
   per buffer — and both still beat basic at the largest sizes. *)
let test_fig9_message_counts () =
  let obj =
    P.List
      (List.init 16 (fun _ -> P.Ndarray (P.ndarray ~dtype:P.U8 [| 128 * 1024 |])))
  in
  Alcotest.(check int) "oob messages" 18
    (Objmsg.messages_per_object Objmsg.Pickle_oob obj);
  Alcotest.(check int) "cdt messages" 2
    (Objmsg.messages_per_object Objmsg.Pickle_oob_cdt obj)

(* Fig. 10 shapes: where regions help and where they hurt. *)
let kernel_bw name method_ =
  match Registry.find name with
  | None -> Alcotest.failf "missing kernel %s" name
  | Some (module K : Kernel.KERNEL) ->
      let k = (module K : Kernel.KERNEL) in
      let slabs = Methods.slabs k in
      let make =
        match method_ with
        | `Reference -> Methods.k_reference k slabs
        | `Manual -> Methods.k_manual k slabs
        | `Ddt -> Methods.k_ddt_direct k slabs
        | `Custom_pack -> Methods.k_custom_pack k slabs
        | `Custom_regions ->
            Option.get (Methods.k_custom_regions k slabs)
      in
      bw ~bytes:K.wire_bytes make

let test_fig10_regions_win_for_large_blocks () =
  (* few/large regions: MILC, NAS_LU_x, NAS_MG_y *)
  List.iter
    (fun name ->
      check_order
        (name ^ ": regions beat packing")
        (kernel_bw name `Custom_regions)
        (kernel_bw name `Custom_pack))
    [ "MILC_su3_zdown"; "NAS_LU_x"; "NAS_MG_y" ]

let test_fig10_regions_lose_for_small_blocks () =
  (* many/small regions: NAS_LU_y, NAS_MG_x *)
  List.iter
    (fun name ->
      check_order
        (name ^ ": packing beats regions")
        (kernel_bw name `Custom_pack)
        (kernel_bw name `Custom_regions))
    [ "NAS_LU_y"; "NAS_MG_x" ]

let test_fig10_custom_competitive () =
  (* custom packing is competitive with the datatype engine for LAMMPS
     and NAS_MG_x (paper: "provides competitive performance") *)
  List.iter
    (fun name ->
      let custom = kernel_bw name `Custom_pack in
      let ddt = kernel_bw name `Ddt in
      Alcotest.(check bool)
        (Printf.sprintf "%s: custom-pack >= 0.9x mpi-ddt (%.0f vs %.0f)" name
           custom ddt)
        true
        (custom >= 0.9 *. ddt))
    [ "LAMMPS_full"; "NAS_MG_x" ]

let test_fig10_reference_fastest () =
  List.iter
    (fun (module K : Kernel.KERNEL) ->
      let r = kernel_bw K.name `Reference in
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (K.name ^ ": reference is an upper bound")
            true
            (r >= kernel_bw K.name m *. 0.99))
        [ `Manual; `Ddt; `Custom_pack ])
    Registry.paper_kernels

(* --- the world's buffer pool under the manual-pack methods --- *)

(* The pool of the world a pingpong of [make] ran in. *)
let pingpong_pool ?faults ~reps make =
  let pool = ref None in
  let watched () =
    let impl = make () in
    {
      impl with
      H.send =
        (fun comm ~dst ~tag ->
          pool := Some (Mpi.world_pool (Mpi.world_of comm));
          impl.H.send comm ~dst ~tag);
    }
  in
  ignore (H.pingpong ?faults ~reps ~bytes:0 watched);
  Option.get !pool

let manual_methods () =
  let k = Option.get (Registry.find "NAS_MG_x") in
  [
    ("k_manual", Methods.k_manual k (Methods.slabs k));
    ("st_manual", Methods.st_manual (module B.Struct_simple) ~count:1000);
  ]

(* Exact work count: after the first rounds every staging buffer is a
   recycled one, so twice the rounds allocate nothing more. *)
let test_pool_misses_constant () =
  List.iter
    (fun (name, make) ->
      let m10 = Mpicd_buf.Buf.Pool.misses (pingpong_pool ~reps:10 make) in
      let m20 = Mpicd_buf.Buf.Pool.misses (pingpong_pool ~reps:20 make) in
      Alcotest.(check int) (name ^ ": misses at reps 10 = reps 20") m10 m20;
      Alcotest.(check bool) (name ^ ": a few misses") true (m10 > 0 && m10 <= 4))
    (manual_methods ())

(* A clean plan changes nothing for the pool: twice the rounds
   allocate nothing more, and the misses are those of a fault-free
   run. *)
let test_pool_recycles_under_clean_plan () =
  let faults = Mpicd_simnet.Fault.make ~seed:3 () in
  let misses ?faults reps make =
    Mpicd_buf.Buf.Pool.misses (pingpong_pool ?faults ~reps make)
  in
  List.iter
    (fun (name, make) ->
      let m10 = misses ~faults 10 make in
      Alcotest.(check int) (name ^ ": misses at reps 10 = reps 20") m10
        (misses ~faults 20 make);
      Alcotest.(check int) (name ^ ": misses as with no plan") (misses 10 make) m10;
      Alcotest.(check bool) (name ^ ": recycled") true
        (Mpicd_buf.Buf.Pool.hits (pingpong_pool ~faults ~reps:10 make) > 0))
    (manual_methods ())

(* Methods handed one input pair share it, in order: each must start
   from an all-zero sink, leave the source as generated and deliver
   it.  [zeroed], [pristine] and [delivered] read the shared pair. *)
let check_shared what ~bytes ~zeroed ~pristine ~delivered methods =
  List.iter
    (fun (label, make) ->
      let name = what ^ " " ^ label in
      let built () =
        let impl = make () in
        Alcotest.(check bool) (name ^ ": starts from a zero sink") true (zeroed ());
        impl
      in
      ignore (H.pingpong ~warmup:1 ~reps:1 ~bytes built);
      Alcotest.(check bool) (name ^ ": source unchanged") true (pristine ());
      Alcotest.(check bool) (name ^ ": delivered") true (delivered label))
    methods

let is_zero b = Mpicd_buf.Buf.(equal b (create (length b)))

let test_shared_inputs () =
  let subvec = 256 and total = 4096 in
  let inputs = Methods.dv_inputs ~subvec ~total in
  let fresh = B.Double_vec.generate ~subvec_bytes:subvec ~total_bytes:total in
  check_shared "double-vec" ~bytes:total
    ~zeroed:(fun () -> Array.for_all is_zero inputs.sink)
    ~pristine:(fun () -> B.Double_vec.equal inputs.src fresh)
    ~delivered:(fun _ -> B.Double_vec.equal inputs.src inputs.sink)
    [
      ("custom", Methods.dv_custom ~inputs ~subvec ~total);
      ("manual-pack", Methods.dv_manual ~inputs ~subvec ~total);
    ];
  List.iter
    (fun (what, ((module S : B.STRUCT) as m)) ->
      let count = 7 in
      let inputs = Methods.st_inputs m ~count in
      let fresh = S.generate ~count in
      check_shared what ~bytes:(count * S.packed_elem_size)
        ~zeroed:(fun () -> is_zero inputs.sink)
        ~pristine:(fun () -> Mpicd_buf.Buf.equal inputs.src fresh)
        ~delivered:(fun _ -> S.equal_elems inputs.src inputs.sink ~count)
        [
          ("custom", Methods.st_custom ~inputs m ~count);
          ("manual-pack", Methods.st_manual ~inputs m ~count);
          ("rsmpi", Methods.st_rsmpi ~inputs m ~count);
        ])
    [
      ("struct-vec", (module B.Struct_vec));
      ("struct-simple", (module B.Struct_simple));
      ("struct-simple-no-gap", (module B.Struct_simple_no_gap));
    ];
  let k = Option.get (Registry.find "WRF_x_vec") in
  let module K = (val k : Kernel.KERNEL) in
  let slabs = Methods.slabs k in
  let fresh = K.create () in
  let prefix b = Mpicd_buf.Buf.sub b ~pos:0 ~len:K.wire_bytes in
  check_shared K.name ~bytes:K.wire_bytes
    ~zeroed:(fun () -> is_zero slabs.sink)
    ~pristine:(fun () -> Mpicd_buf.Buf.equal slabs.src fresh)
    ~delivered:(function
      | "reference" -> Mpicd_buf.Buf.equal (prefix slabs.src) (prefix slabs.sink)
      | _ -> K.equal slabs.src slabs.sink)
    (List.filter_map
       (fun (label, make) -> Option.map (fun make -> (label, make)) make)
       (Methods.kernel_methods k slabs));
  (* the reference's prefix fits every kernel's slab *)
  List.iter
    (fun (module K : Kernel.KERNEL) ->
      Alcotest.(check bool) (K.name ^ ": wire bytes fit the slab") true
        (K.wire_bytes <= K.slab_bytes))
    Registry.all

(* A5: the table EXPERIMENTS.md records, for the 8 MiB object. *)
let a5_rows =
  [
    [ "pickle-basic"; "1"; "2.00"; "2.00" ];
    [ "pickle-oob"; "66"; "1.00"; "0.00" ];
    [ "pickle-oob-cdt"; "2"; "1.00"; "0.00" ];
  ]

let test_a5_table () =
  let bytes, rows = Mpicd_figures.Ablations.objmsg_costs () in
  Alcotest.(check int) "A5 object bytes" 8388608 bytes;
  Alcotest.(check (list (list string))) "A5 rows" a5_rows rows

(* One object serves all three strategies, so no sender may write it:
   a patterned object of the same shape gives the same rows and keeps
   every byte. *)
let test_a5_object_unchanged () =
  let chunk = 128 * 1024 in
  let arrays =
    List.init 64 (fun i ->
        let a = P.ndarray ~dtype:P.U8 [| chunk |] in
        B.fill_pattern ~seed:i a.P.data;
        a)
  in
  let copies = List.map (fun a -> Mpicd_buf.Buf.copy a.P.data) arrays in
  let obj = P.List (List.map (fun a -> P.Ndarray a) arrays) in
  let rows = Mpicd_figures.Ablations.objmsg_rows obj ~bytes:(64 * chunk) in
  Alcotest.(check (list (list string))) "A5 rows" a5_rows rows;
  List.iter2
    (fun a c ->
      Alcotest.(check bool) "array bytes unchanged" true
        (Mpicd_buf.Buf.equal a.P.data c))
    arrays copies

let suite =
  let tc = Alcotest.test_case in
  ( "figures",
    [
      tc "Fig1 shape: subvector-size crossover" `Slow test_fig1_shape;
      tc "Fig2 shape: custom wins at scale" `Slow test_fig2_shape;
      tc "Fig3 shape: custom handicap then convergence" `Slow test_fig3_shape;
      tc "Fig5/6 shape: the gap penalty" `Slow test_fig5_fig6_shape;
      tc "Fig7 shape: eager->rndv dip" `Slow test_fig7_dip;
      tc "Fig8 shape: single array strategies" `Slow test_fig8_shape;
      tc "Fig9 shape: complex object strategies" `Slow test_fig9_shape;
      tc "Fig9 message counts" `Quick test_fig9_message_counts;
      tc "Fig10: regions win for large blocks" `Slow
        test_fig10_regions_win_for_large_blocks;
      tc "Fig10: regions lose for small blocks" `Slow
        test_fig10_regions_lose_for_small_blocks;
      tc "Fig10: custom-pack competitive" `Slow test_fig10_custom_competitive;
      tc "Fig10: reference is upper bound" `Slow test_fig10_reference_fastest;
      tc "pool: manual-pack misses are a constant" `Quick test_pool_misses_constant;
      tc "pool: recycles under a clean plan" `Quick
        test_pool_recycles_under_clean_plan;
      tc "methods share inputs from a zero sink" `Quick test_shared_inputs;
      tc "A5 table pinned" `Quick test_a5_table;
      tc "A5 shared object unchanged" `Quick test_a5_object_unchanged;
    ] )
