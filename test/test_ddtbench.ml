(* Tests for the DDTBench kernels: every kernel, every transfer method,
   same bytes. *)

module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype
module Mpi = Mpicd.Mpi
module Plan = Mpicd_datatype.Plan
module Stats = Mpicd_simnet.Stats
module Kernel = Mpicd_ddtbench.Kernel
module Registry = Mpicd_ddtbench.Registry

let check_int = Alcotest.(check int)

(* --- a kernel's table: the plan of its derived type --- *)

(* Four blocks out of slab order, none adjacent: the plan keeps them as
   four blocks in typemap order. *)
let sample_plan =
  Plan.build
    (Dt.hindexed ~blocklengths:[| 4; 8; 2; 1 |]
       ~displacements_bytes:[| 10; 20; 3; 40 |] Dt.byte)

let test_blocks_total () =
  check_int "total" 15 (Plan.size sample_plan);
  check_int "count" 4 (Plan.block_count sample_plan)

let test_blocks_pack_matches_manual () =
  let base = Buf.create 64 in
  for i = 0 to 63 do
    Buf.set_u8 base i i
  done;
  let dst = Buf.create 15 in
  ignore (Plan.pack sample_plan ~count:1 ~src:base ~dst);
  let expect = [ 10; 11; 12; 13; 20; 21; 22; 23; 24; 25; 26; 27; 3; 4; 40 ] in
  List.iteri (fun i v -> check_int "byte" v (Buf.get_u8 dst i)) expect

let test_blocks_fragmented_equals_whole () =
  let base = Buf.create 64 in
  Mpicd_ddtbench.Kernel.fill base;
  let whole = Buf.create 15 in
  ignore (Plan.pack sample_plan ~count:1 ~src:base ~dst:whole);
  for frag = 1 to 15 do
    let out = Buf.create 15 in
    let off = ref 0 in
    while !off < 15 do
      let len = min frag (15 - !off) in
      let n =
        Plan.pack_range sample_plan ~count:1 ~src:base ~packed_off:!off
          ~dst:(Buf.sub out ~pos:!off ~len)
      in
      assert (n = len);
      off := !off + len
    done;
    Alcotest.(check bool)
      (Printf.sprintf "frag=%d" frag)
      true (Buf.equal whole out)
  done

let test_blocks_unpack_roundtrip () =
  let base = Buf.create 64 in
  Mpicd_ddtbench.Kernel.fill base;
  let packed = Buf.create 15 in
  ignore (Plan.pack sample_plan ~count:1 ~src:base ~dst:packed);
  let sink = Buf.create 64 in
  (* unpack in awkward fragments *)
  let off = ref 0 in
  while !off < 15 do
    let len = min 4 (15 - !off) in
    ignore
      (Plan.unpack_range sample_plan ~count:1 ~src:(Buf.sub packed ~pos:!off ~len)
         ~packed_off:!off ~dst:sink);
    off := !off + len
  done;
  let repacked = Buf.create 15 in
  ignore (Plan.pack sample_plan ~count:1 ~src:sink ~dst:repacked);
  Alcotest.(check bool) "typed equal" true (Buf.equal packed repacked)

let test_blocks_past_end () =
  let base = Buf.create 64 in
  check_int "zero past end" 0
    (Plan.pack_range sample_plan ~count:1 ~src:base ~packed_off:15
       ~dst:(Buf.create 8))

(* The interpreter's merged blocks of one element of a kernel's derived
   type, in order: a walk of the layout that does not use the plan. *)
let derived_blocks (module K : Kernel.KERNEL) =
  let acc = ref [] in
  Dt.iter_blocks K.derived ~count:1 ~f:(fun ~disp ~len -> acc := (disp, len) :: !acc);
  List.rev !acc

(* A kernel's regions are its plan's table cut from the slab it sends:
   the derived type's blocks, in order, each in the slab's memory. *)
let test_blocks_regions_alias () =
  List.iter
    (fun (module K : Kernel.KERNEL) ->
      match K.custom_regions with
      | None -> ()
      | Some dt ->
          let base = K.create () in
          let op = Mpicd.Custom.start dt base ~count:1 in
          let regs = Mpicd.Custom.regions op in
          let table = Buf.Iov.of_table base (Plan.region_table K.plan) in
          check_int (K.name ^ " count") (Plan.block_count K.plan) (Buf.Iov.count regs);
          check_int (K.name ^ " table") (Plan.block_count K.plan) (Buf.Iov.count table);
          List.iteri
            (fun i (off, len) ->
              let block = Buf.sub base ~pos:off ~len in
              if not (Buf.same_memory (Buf.Iov.get table i) block) then
                Alcotest.failf "%s: table entry %d is not the slab's block" K.name i;
              if not (Buf.same_memory (Buf.Iov.get regs i) block) then
                Alcotest.failf "%s: region %d is not the slab's block" K.name i)
            (derived_blocks (module K));
          Mpicd.Custom.finish op)
    Registry.all

(* [equal] reads every region of the plan's table and nothing else: from
   a sink equal to the source, one byte flipped inside the first or the
   last region makes it false, and one flipped outside every region,
   where the slab has such a byte, leaves it true. *)
let test_kernel_equal_reads_regions () =
  List.iter
    (fun (module K : Kernel.KERNEL) ->
      let src = K.create () and sink = K.create () in
      let blocks = derived_blocks (module K) in
      let flipped what pos ~want =
        let v = Buf.get_u8 sink pos in
        Buf.set_u8 sink pos (v lxor 0x5a);
        Alcotest.(check bool) (Printf.sprintf "%s: %s" K.name what) want (K.equal src sink);
        Buf.set_u8 sink pos v
      in
      Alcotest.(check bool) (K.name ^ ": equal slabs") true (K.equal src sink);
      let first_off, first_len = List.hd blocks in
      let last_off, last_len = List.nth blocks (List.length blocks - 1) in
      flipped "first region" (first_off + (first_len / 2)) ~want:false;
      flipped "last region" (last_off + last_len - 1) ~want:false;
      (* the first byte no block covers *)
      let rec first_gap pos = function
        | (off, len) :: rest when off <= pos -> first_gap (max pos (off + len)) rest
        | _ -> pos
      in
      let gap = first_gap 0 (List.sort compare blocks) in
      if gap < K.slab_bytes then flipped "outside every region" gap ~want:true)
    Registry.all

(* --- kernels: exhaustive per-kernel method agreement --- *)

let for_each_kernel f =
  List.iter (fun (module K : Kernel.KERNEL) -> f (module K : Kernel.KERNEL)) Registry.all

let test_manual_roundtrip () =
  for_each_kernel (fun (module K) ->
      let src = K.create () in
      let packed = Buf.create K.wire_bytes in
      K.manual_pack src ~dst:packed;
      let sink = K.create_sink () in
      K.manual_unpack ~src:packed sink;
      Alcotest.(check bool) (K.name ^ " manual roundtrip") true (K.equal src sink))

let test_manual_matches_blocks () =
  (* The hand-written loop nests must produce the same packed stream as
     the kernel's plan (and hence the custom pack callbacks). *)
  for_each_kernel (fun (module K) ->
      let src = K.create () in
      let manual = Buf.create K.wire_bytes in
      K.manual_pack src ~dst:manual;
      let cursor = Buf.create K.wire_bytes in
      ignore (Plan.pack K.plan ~count:1 ~src ~dst:cursor);
      Alcotest.(check bool) (K.name ^ " manual = cursor") true
        (Buf.equal manual cursor))

(* Widening a float32 to a double and back quiets a signalling NaN
   (0x7f800001 returns as 0x7fc00001), so the packers must move raw
   bytes: a slab of signalling-NaN words of both signs must survive
   manual_pack and manual_unpack bit for bit. *)
let test_manual_keeps_signalling_nans () =
  for_each_kernel (fun (module K) ->
      let src = Buf.create K.slab_bytes in
      for w = 0 to (K.slab_bytes / 4) - 1 do
        let payload = 1 + (w mod 0x3f_fffe) in
        let sign = if w land 1 = 1 then 0x8000_0000 else 0 in
        Buf.set_i32 src (4 * w) (Int32.of_int (sign lor 0x7f80_0000 lor payload))
      done;
      let want = Buf.create K.wire_bytes in
      ignore (Plan.pack K.plan ~count:1 ~src ~dst:want);
      let packed = Buf.create K.wire_bytes in
      K.manual_pack src ~dst:packed;
      Alcotest.(check bool) (K.name ^ " manual_pack keeps sNaN words") true
        (Buf.equal want packed);
      let sink = K.create_sink () in
      K.manual_unpack ~src:want sink;
      Alcotest.(check bool) (K.name ^ " manual_unpack keeps sNaN words") true
        (K.equal src sink))

(* Every kernel's manual packers allocate nothing per call (a boxed
   float per [Buf.get_f64], or a closure per [Array.iter], would show). *)
let test_manual_packs_alloc_free () =
  List.iter
    (fun (module K : Kernel.KERNEL) ->
      let name = K.name in
      let src = K.create () and sink = K.create_sink () in
      let packed = Buf.create K.wire_bytes in
      let words f = Test_bench_types.minor_words_per_call f in
      check_int (name ^ " manual_pack minor words") 0
        (words (fun () -> K.manual_pack src ~dst:packed));
      check_int (name ^ " manual_unpack minor words") 0
        (words (fun () -> K.manual_unpack ~src:packed sink)))
    Registry.all

let test_derived_matches_manual () =
  (* The derived datatype's pack must match the manual pack stream. *)
  for_each_kernel (fun (module K) ->
      let src = K.create () in
      let manual = Buf.create K.wire_bytes in
      K.manual_pack src ~dst:manual;
      let viaddt = Buf.create K.wire_bytes in
      ignore (Dt.pack K.derived ~count:1 ~src ~dst:viaddt);
      Alcotest.(check bool) (K.name ^ " ddt = manual") true
        (Buf.equal manual viaddt))

let test_derived_over_mpi () =
  for_each_kernel (fun (module K) ->
      let w = Mpi.create_world ~size:2 () in
      let src = K.create () and sink = K.create_sink () in
      Mpi.run w (fun comm ->
          if Mpi.rank comm = 0 then
            Mpi.send comm ~dst:1 ~tag:0
              (Mpi.Typed { dt = K.derived; count = 1; base = src })
          else
            ignore
              (Mpi.recv comm (Mpi.Typed { dt = K.derived; count = 1; base = sink })));
      Alcotest.(check bool) (K.name ^ " derived over MPI") true (K.equal src sink))

let test_custom_pack_over_mpi () =
  for_each_kernel (fun (module K) ->
      let w = Mpi.create_world ~size:2 () in
      let src = K.create () and sink = K.create_sink () in
      Mpi.run w (fun comm ->
          if Mpi.rank comm = 0 then
            Mpi.send comm ~dst:1 ~tag:0
              (Mpi.Custom { dt = K.custom_pack; obj = src; count = 1 })
          else
            ignore
              (Mpi.recv comm
                 (Mpi.Custom { dt = K.custom_pack; obj = sink; count = 1 })));
      Alcotest.(check bool) (K.name ^ " custom-pack over MPI") true
        (K.equal src sink))

let test_custom_regions_over_mpi () =
  for_each_kernel (fun (module K) ->
      match K.custom_regions with
      | None ->
          Alcotest.(check bool)
            (K.name ^ " regions not sensible")
            false K.regions_sensible
      | Some dt ->
          let w = Mpi.create_world ~size:2 () in
          let src = K.create () and sink = K.create_sink () in
          Mpi.run w (fun comm ->
              if Mpi.rank comm = 0 then
                Mpi.send comm ~dst:1 ~tag:0 (Mpi.Custom { dt; obj = src; count = 1 })
              else
                ignore (Mpi.recv comm (Mpi.Custom { dt; obj = sink; count = 1 })));
          Alcotest.(check bool) (K.name ^ " custom-regions over MPI") true
            (K.equal src sink);
          (* regions must be zero-copy *)
          let stats = Mpi.world_stats w in
          Alcotest.(check bool) (K.name ^ " zero copies") true
            (Stats.get stats Bytes_copied < K.wire_bytes / 10))

(* Minor words per message of a warmed-up 2-rank custom-regions
   ping-pong.  Every message's regions are the slab cut by the kernel's
   one table, and a region copy allocates nothing whatever its length,
   so a message costs the same few hundred words for NAS_MG_x's 16,384
   small blocks as for MILC_su3_zdown's 256 blocks of over 1 KiB
   (measured 289.5 words each; 300.5 and 3,884.5 when a copy over 1 KiB
   made two bigarray views). *)
let regions_pingpong_words name =
  let (module K : Kernel.KERNEL) = Option.get (Registry.find name) in
  let dt = Option.get K.custom_regions in
  let src = K.create () and sink = K.create_sink () in
  let n = 5 in
  let words = Array.make 2 0. in
  let w = Mpi.create_world ~size:2 () in
  let custom obj = Mpi.Custom { dt; obj; count = 1 } in
  Mpi.run w (fun comm ->
      for i = 1 to 2 * n do
        if Mpi.rank comm = 0 then begin
          if i = n + 1 then words.(0) <- Gc.minor_words ();
          Mpi.send comm ~dst:1 ~tag:0 (custom src);
          ignore (Mpi.recv comm ~source:1 ~tag:1 (custom sink))
        end
        else begin
          ignore (Mpi.recv comm ~source:0 ~tag:0 (custom sink));
          Mpi.send comm ~dst:0 ~tag:1 (custom src)
        end
      done;
      if Mpi.rank comm = 0 then words.(1) <- Gc.minor_words ());
  (words.(1) -. words.(0)) /. float_of_int (2 * n)

let test_regions_words_flat () =
  List.iter
    (fun name ->
      let words = regions_pingpong_words name in
      if words > 320. then
        Alcotest.failf "%s: %.1f minor words per message > 320" name words)
    [ "MILC_su3_zdown"; "NAS_MG_x" ]

let test_wire_sizes_sane () =
  for_each_kernel (fun (module K) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s wire (%d) fits slab (%d)" K.name K.wire_bytes
           K.slab_bytes)
        true
        (K.wire_bytes > 0 && K.wire_bytes <= K.slab_bytes);
      check_int (K.name ^ " derived size") (Plan.size K.plan) (Dt.size K.derived))

let test_expected_block_granularity () =
  (* The properties the paper's Fig. 10 analysis relies on. *)
  let count name =
    match Registry.find name with
    | Some (module K) -> Plan.block_count K.plan
    | None -> Alcotest.failf "kernel %s missing" name
  in
  (* contiguous exchanges: a single region *)
  check_int "NAS_LU_x one region" 1 (count "NAS_LU_x");
  (* NAS_LU_y: many small regions *)
  Alcotest.(check bool) "NAS_LU_y many regions" true (count "NAS_LU_y" >= 1024);
  (* MG_x tiny blocks vastly outnumber MG_y's row blocks *)
  Alcotest.(check bool) "MG_x >> MG_y" true
    (count "NAS_MG_x" > 100 * count "NAS_MG_y");
  (* MILC: a small number of fairly large regions *)
  Alcotest.(check bool) "MILC few regions" true (count "MILC_su3_zdown" <= 512)

let test_registry () =
  check_int "paper kernels" 8 (List.length Registry.paper_kernels);
  Alcotest.(check bool) "extras present" true
    (List.length Registry.extra_kernels >= 4);
  Alcotest.(check bool) "find works" true
    (Option.is_some (Registry.find "LAMMPS_full"));
  Alcotest.(check bool) "find missing" true (Registry.find "nope" = None)

let test_table1_contents () =
  let rows = Registry.table1 Registry.paper_kernels in
  check_int "eight rows" 8 (List.length rows);
  let name, dts, loops, regions = List.hd rows in
  Alcotest.(check string) "first is LAMMPS" "LAMMPS_full" name;
  Alcotest.(check string) "datatypes" "indexed, struct" dts;
  Alcotest.(check bool) "loop structure mentions arrays" true
    (String.length loops > 0);
  Alcotest.(check string) "lammps: no regions" "" regions;
  let checkmarks =
    List.filter (fun (_, _, _, r) -> r = "yes") rows |> List.length
  in
  (* MILC, NAS_LU_x, NAS_LU_y, NAS_MG_x, NAS_MG_y carry the checkmark *)
  check_int "five region rows" 5 checkmarks

(* The plan's fragment entry points, with and without a cursor, give
   the stream one [Plan.pack] does. *)
let prop_blocks_random_fragmentation =
  QCheck.Test.make ~name:"ddtbench: random kernel x fragment size packs equal"
    ~count:60
    QCheck.(pair (int_range 0 (List.length Registry.all - 1)) (int_range 1 65536))
    (fun (ki, frag) ->
      let (module K : Kernel.KERNEL) = List.nth Registry.all ki in
      let src = K.create () in
      let whole = Buf.create K.wire_bytes in
      ignore (Plan.pack K.plan ~count:1 ~src ~dst:whole);
      let fragments ?cursor () =
        let out = Buf.create K.wire_bytes in
        let off = ref 0 in
        while !off < K.wire_bytes do
          let len = min frag (K.wire_bytes - !off) in
          assert (
            Plan.pack_range ?cursor K.plan ~count:1 ~src ~packed_off:!off
              ~dst:(Buf.sub out ~pos:!off ~len)
            = len);
          off := !off + len
        done;
        out
      in
      Buf.equal whole (fragments ())
      && Buf.equal whole (fragments ~cursor:(Plan.cursor K.plan) ()))

(* The input fills write one 256-byte period and double it; every
   byte must still equal its closed form, at lengths around the period,
   on a view at an odd offset, and on every paper kernel's slab. *)
let test_fills_match_closed_form () =
  (* Both closed forms repeat every 256 bytes, so the slabs (~127 MB
     in all) compare word by word against one period. *)
  let check name f b =
    let n = Buf.length b in
    let period = Buf.create 256 in
    for i = 0 to 255 do
      Buf.set_u8 period i (f i)
    done;
    let fail i = Alcotest.failf "%s: bytes from %d of %d" name i n in
    let i = ref 0 in
    while !i + 8 <= n do
      if not (Int64.equal (Buf.get_i64 b !i) (Buf.get_i64 period (!i land 255)))
      then fail !i;
      i := !i + 8
    done;
    for j = !i to n - 1 do
      if Buf.get_u8 b j <> f j land 0xff then fail j
    done
  in
  let kernel_byte i = (i * 131) + 17 in
  List.iter
    (fun n ->
      let b = Buf.create n in
      Kernel.fill b;
      check (Printf.sprintf "Kernel.fill %d" n) kernel_byte b;
      let v = Buf.sub (Buf.create (n + 1)) ~pos:1 ~len:n in
      Kernel.fill v;
      check (Printf.sprintf "Kernel.fill view %d" n) kernel_byte v;
      List.iter
        (fun seed ->
          let b = Buf.create n in
          Mpicd_bench_types.Bench_types.fill_pattern ~seed b;
          check
            (Printf.sprintf "fill_pattern seed %d, %d" seed n)
            (fun i -> (i * 31) + seed + 11)
            b)
        [ 0; 1; 7; 255; 1000 ])
    [ 0; 1; 255; 256; 257; 4097 ];
  List.iter
    (fun (module K : Kernel.KERNEL) -> check K.name kernel_byte (K.create ()))
    Registry.paper_kernels

(* The LAMMPS packers check the slab and the stream once and then move
   words: the stream is the plan's, and its unpack restores the slab's
   exchanged bytes.  A half slab (whose last fields hold selected
   particles) or a stream one byte short, each a view of a longer
   buffer, still raises [Invalid_argument]. *)
let test_lammps_packers () =
  List.iter
    (fun name ->
      let (module K : Kernel.KERNEL) = Option.get (Registry.find name) in
      let src = K.create () in
      let want = Buf.create K.wire_bytes in
      ignore (Mpicd_datatype.Plan.pack K.plan ~count:1 ~src ~dst:want);
      let packed = Buf.create K.wire_bytes in
      K.manual_pack src ~dst:packed;
      Alcotest.(check bool) (name ^ " manual_pack = Plan.pack") true
        (Buf.equal want packed);
      let sink = K.create_sink () in
      K.manual_unpack ~src:packed sink;
      Alcotest.(check bool) (name ^ " manual_unpack restores") true (K.equal src sink);
      let view n = Buf.sub (Buf.create (K.slab_bytes + K.wire_bytes)) ~pos:0 ~len:n in
      let raises what f =
        match f () with
        | () -> Alcotest.failf "%s %s: no Invalid_argument" name what
        | exception Invalid_argument _ -> ()
      in
      raises "pack from a short slab" (fun () ->
          K.manual_pack (view (K.slab_bytes / 2)) ~dst:packed);
      raises "pack into a short stream" (fun () ->
          K.manual_pack src ~dst:(view (K.wire_bytes - 1)));
      raises "unpack into a short slab" (fun () ->
          K.manual_unpack ~src:packed (view (K.slab_bytes / 2)));
      raises "unpack from a short stream" (fun () ->
          K.manual_unpack ~src:(view (K.wire_bytes - 1)) sink))
    [ "LAMMPS_full"; "LAMMPS_atomic" ]

let suite =
  let tc = Alcotest.test_case in
  ( "ddtbench",
    [
      tc "blocks total/count" `Quick test_blocks_total;
      tc "blocks pack order" `Quick test_blocks_pack_matches_manual;
      tc "blocks fragmented = whole" `Quick test_blocks_fragmented_equals_whole;
      tc "blocks unpack roundtrip" `Quick test_blocks_unpack_roundtrip;
      tc "blocks past end" `Quick test_blocks_past_end;
      tc "blocks regions alias slab" `Quick test_blocks_regions_alias;
      tc "all kernels: manual roundtrip" `Quick test_manual_roundtrip;
      tc "all kernels: manual = cursor stream" `Quick test_manual_matches_blocks;
      tc "all kernels: derived = manual stream" `Quick test_derived_matches_manual;
      tc "all kernels: manual packs keep signalling NaNs" `Quick
        test_manual_keeps_signalling_nans;
      tc "kernel manual packs allocate nothing" `Quick test_manual_packs_alloc_free;
      tc "LAMMPS packers = plan, short buffers raise" `Quick test_lammps_packers;
      tc "all kernels: derived over MPI" `Slow test_derived_over_mpi;
      tc "all kernels: custom-pack over MPI" `Slow test_custom_pack_over_mpi;
      tc "all kernels: custom-regions over MPI" `Slow test_custom_regions_over_mpi;
      tc "all kernels: wire sizes sane" `Quick test_wire_sizes_sane;
      tc "regions message words flat in block count" `Quick test_regions_words_flat;
      tc "kernel equal reads every region, only them" `Quick
        test_kernel_equal_reads_regions;
      tc "block granularity matches paper analysis" `Quick
        test_expected_block_granularity;
      tc "input fills match closed form" `Quick test_fills_match_closed_form;
      tc "registry" `Quick test_registry;
      tc "Table I contents" `Quick test_table1_contents;
      QCheck_alcotest.to_alcotest prop_blocks_random_fragmentation;
    ] )
