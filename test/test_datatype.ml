(* Tests for the classic MPI derived-datatype engine. *)

module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype
module Rng = Mpicd_simnet.Rng
module Stats = Mpicd_simnet.Stats

let check_int = Alcotest.(check int)

let buf_of_bytes lst =
  let b = Buf.create (List.length lst) in
  List.iteri (fun i v -> Buf.set_u8 b i v) lst;
  b

(* Deterministic byte fill, shared with the plan/normalize suites. *)
let pattern = Dt_gen.pattern

(* Reference pack via the signature/raw block walk. *)
let pack_simple t ~count ~src =
  let dst = Buf.create (Dt.packed_size t ~count) in
  let n = Dt.pack t ~count ~src ~dst in
  check_int "pack returns packed_size" (Dt.packed_size t ~count) n;
  dst

let roundtrip ?(count = 1) t src_len =
  let src = pattern src_len in
  let packed = pack_simple t ~count ~src in
  let dst = Buf.create src_len in
  Dt.unpack t ~count ~src:packed ~dst;
  (src, packed, dst)

(* Check that unpack(pack(x)) only touches the typed bytes: all typed
   blocks equal, everything else zero in dst. *)
let check_typed_equal t ~count ~src ~dst =
  Dt.iter_blocks t ~count ~f:(fun ~disp ~len ->
      for i = disp to disp + len - 1 do
        if Buf.get_u8 src i <> Buf.get_u8 dst i then
          Alcotest.failf "byte %d differs after roundtrip" i
      done)

(* --- sizes and extents --- *)

let test_predefined_sizes () =
  check_int "byte" 1 (Dt.size Dt.byte);
  check_int "char" 1 (Dt.size Dt.char);
  check_int "i16" 2 (Dt.size Dt.int16);
  check_int "i32" 4 (Dt.size Dt.int32);
  check_int "i64" 8 (Dt.size Dt.int64);
  check_int "f32" 4 (Dt.size Dt.float32);
  check_int "f64" 8 (Dt.size Dt.float64);
  check_int "extent = size for predefined" 8 (Dt.extent Dt.float64)

let test_contiguous () =
  let t = Dt.contiguous 10 Dt.int32 in
  check_int "size" 40 (Dt.size t);
  check_int "extent" 40 (Dt.extent t);
  Alcotest.(check bool) "contiguous" true (Dt.is_contiguous t);
  check_int "one block" 1 (Dt.blocks_per_element t)

let test_contiguous_zero () =
  let t = Dt.contiguous 0 Dt.int32 in
  check_int "size" 0 (Dt.size t);
  check_int "extent" 0 (Dt.extent t)

let test_vector () =
  (* 3 blocks of 2 ints, stride 4 ints: |XX..|XX..|XX| *)
  let t = Dt.vector ~count:3 ~blocklength:2 ~stride:4 Dt.int32 in
  check_int "size" 24 (Dt.size t);
  check_int "extent" ((2 * 16) + 8) (Dt.extent t);
  check_int "blocks" 3 (Dt.blocks_per_element t);
  Alcotest.(check bool) "not contiguous" false (Dt.is_contiguous t);
  Alcotest.(check (list (pair int int)))
    "block list"
    [ (0, 8); (16, 8); (32, 8) ]
    (Dt.block_list t ~count:1)

let test_vector_unit_stride_merges () =
  let t = Dt.vector ~count:4 ~blocklength:3 ~stride:3 Dt.int32 in
  check_int "merged to one block" 1 (Dt.blocks_per_element t);
  Alcotest.(check bool) "contiguous" true (Dt.is_contiguous t)

let test_hvector () =
  let t = Dt.hvector ~count:2 ~blocklength:1 ~stride_bytes:10 Dt.int32 in
  check_int "size" 8 (Dt.size t);
  check_int "extent" 14 (Dt.extent t);
  Alcotest.(check (list (pair int int)))
    "blocks" [ (0, 4); (10, 4) ] (Dt.block_list t ~count:1)

let test_indexed () =
  let t =
    Dt.indexed ~blocklengths:[| 2; 1 |] ~displacements:[| 0; 4 |] Dt.int32
  in
  check_int "size" 12 (Dt.size t);
  Alcotest.(check (list (pair int int)))
    "blocks" [ (0, 8); (16, 4) ] (Dt.block_list t ~count:1)

let test_indexed_block () =
  let t = Dt.indexed_block ~blocklength:2 ~displacements:[| 0; 3; 6 |] Dt.int16 in
  check_int "size" 12 (Dt.size t);
  Alcotest.(check (list (pair int int)))
    "blocks" [ (0, 4); (6, 4); (12, 4) ] (Dt.block_list t ~count:1)

let test_hindexed_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Datatype.hindexed: array length mismatch") (fun () ->
      ignore
        (Dt.hindexed ~blocklengths:[| 1 |] ~displacements_bytes:[| 0; 4 |]
           Dt.int32))

(* The paper's struct-simple: 3 x i32 + gap + f64 (C layout, 24 bytes). *)
let struct_simple =
  Dt.struct_ ~blocklengths:[| 3; 1 |] ~displacements_bytes:[| 0; 16 |]
    ~types:[| Dt.int32; Dt.float64 |]

let test_struct_with_gap () =
  let t = Dt.resized ~lb:0 ~extent:24 struct_simple in
  check_int "size" 20 (Dt.size t);
  check_int "extent" 24 (Dt.extent t);
  Alcotest.(check bool) "gap -> not contiguous" false (Dt.is_contiguous t);
  check_int "two blocks" 2 (Dt.blocks_per_element t);
  (* Two elements: blocks do not merge across the gap. *)
  Alcotest.(check (list (pair int int)))
    "two elements (f64 merges into next element's ints)"
    [ (0, 12); (16, 20); (40, 8) ]
    (Dt.block_list t ~count:2)

let test_struct_no_gap_contiguous () =
  (* struct-simple-no-gap: 2 x i32 + f64 = 16 bytes, no padding. *)
  let t =
    Dt.struct_ ~blocklengths:[| 2; 1 |] ~displacements_bytes:[| 0; 8 |]
      ~types:[| Dt.int32; Dt.float64 |]
  in
  check_int "size" 16 (Dt.size t);
  check_int "extent" 16 (Dt.extent t);
  Alcotest.(check bool) "contiguous" true (Dt.is_contiguous t);
  (* Multiple elements merge into a single wire block. *)
  Alcotest.(check (list (pair int int)))
    "fully merged" [ (0, 64) ]
    (Dt.block_list t ~count:4)

let test_resized_tiling () =
  let t = Dt.resized ~lb:0 ~extent:8 (Dt.contiguous 1 Dt.int32) in
  Alcotest.(check (list (pair int int)))
    "strided tiling"
    [ (0, 4); (8, 4); (16, 4) ]
    (Dt.block_list t ~count:3)

let test_subarray_2d () =
  (* 4x6 i32 matrix, take rows 1-2, cols 2-4 (C order). *)
  let t =
    Dt.subarray ~sizes:[| 4; 6 |] ~subsizes:[| 2; 3 |] ~starts:[| 1; 2 |]
      ~order:`C Dt.int32
  in
  check_int "size" (2 * 3 * 4) (Dt.size t);
  check_int "extent covers whole array" (4 * 6 * 4) (Dt.extent t);
  Alcotest.(check (list (pair int int)))
    "blocks"
    [ ((6 + 2) * 4, 12); ((12 + 2) * 4, 12) ]
    (Dt.block_list t ~count:1)

let test_subarray_fortran () =
  (* Same region expressed in Fortran (column-major) order. *)
  let c =
    Dt.subarray ~sizes:[| 4; 6 |] ~subsizes:[| 2; 3 |] ~starts:[| 1; 2 |]
      ~order:`C Dt.int32
  in
  let f =
    Dt.subarray ~sizes:[| 6; 4 |] ~subsizes:[| 3; 2 |] ~starts:[| 2; 1 |]
      ~order:`Fortran Dt.int32
  in
  Alcotest.(check (list (pair int int)))
    "same blocks" (Dt.block_list c ~count:1) (Dt.block_list f ~count:1)

let test_subarray_invalid () =
  Alcotest.check_raises "region exceeds array"
    (Invalid_argument "Datatype.subarray: invalid sub-region") (fun () ->
      ignore
        (Dt.subarray ~sizes:[| 4 |] ~subsizes:[| 3 |] ~starts:[| 2 |] ~order:`C
           Dt.int32))

(* --- pack/unpack --- *)

let test_pack_contiguous () =
  let t = Dt.contiguous 4 Dt.int32 in
  let src = pattern 16 in
  let packed = pack_simple t ~count:1 ~src in
  Alcotest.(check bool) "identical bytes" true (Buf.equal src packed)

let test_pack_vector_gathers () =
  let t = Dt.vector ~count:2 ~blocklength:1 ~stride:2 Dt.uint8 in
  let src = buf_of_bytes [ 1; 2; 3; 4 ] in
  let packed = pack_simple t ~count:1 ~src in
  Alcotest.(check (list int)) "gathered" [ 1; 3 ]
    [ Buf.get_u8 packed 0; Buf.get_u8 packed 1 ]

let test_roundtrip_struct_gap () =
  let t = Dt.resized ~lb:0 ~extent:24 struct_simple in
  let src, _packed, dst = roundtrip ~count:5 t (24 * 5) in
  check_typed_equal t ~count:5 ~src ~dst;
  (* gap bytes must remain zero *)
  for e = 0 to 4 do
    for i = 12 to 15 do
      check_int "gap untouched" 0 (Buf.get_u8 dst ((e * 24) + i))
    done
  done

let test_unpack_wrong_size () =
  let t = Dt.contiguous 4 Dt.int32 in
  let src = Buf.create 15 in
  let dst = Buf.create 16 in
  match Dt.unpack t ~count:1 ~src ~dst with
  | () -> Alcotest.fail "expected failure"
  | exception Invalid_argument _ -> ()

let test_pack_range_full_equiv () =
  let t = Dt.vector ~count:5 ~blocklength:3 ~stride:7 Dt.int32 in
  let count = 3 in
  let src = pattern (Dt.extent t * count) in
  let whole = pack_simple t ~count ~src in
  let psize = Dt.packed_size t ~count in
  (* Pack the same stream fragment by fragment with awkward sizes. *)
  let frag = 13 in
  let out = Buf.create psize in
  let off = ref 0 in
  while !off < psize do
    let len = min frag (psize - !off) in
    let dst = Buf.sub out ~pos:!off ~len in
    let n = Dt.pack_range t ~count ~src ~packed_off:!off ~dst in
    check_int "fragment filled" len n;
    off := !off + len
  done;
  Alcotest.(check bool) "matches whole pack" true (Buf.equal whole out)

let test_pack_range_past_end () =
  let t = Dt.contiguous 2 Dt.int32 in
  let src = pattern 8 in
  let dst = Buf.create 16 in
  let n = Dt.pack_range t ~count:1 ~src ~packed_off:0 ~dst in
  check_int "short write at end" 8 n;
  let n2 = Dt.pack_range t ~count:1 ~src ~packed_off:8 ~dst in
  check_int "empty past end" 0 n2

let test_unpack_range_fragments () =
  let t = Dt.indexed ~blocklengths:[| 1; 2 |] ~displacements:[| 0; 2 |] Dt.int32 in
  let count = 4 in
  let src = pattern (Dt.extent t * count) in
  let packed = pack_simple t ~count ~src in
  let dst = Buf.create (Dt.extent t * count) in
  let psize = Dt.packed_size t ~count in
  let frag = 5 in
  let off = ref 0 in
  while !off < psize do
    let len = min frag (psize - !off) in
    let consumed =
      Dt.unpack_range t ~count ~src:(Buf.sub packed ~pos:!off ~len)
        ~packed_off:!off ~dst
    in
    check_int "unpack_range consumed" len consumed;
    off := !off + len
  done;
  check_typed_equal t ~count ~src ~dst

let test_iovec_zero_copy () =
  let t = Dt.vector ~count:2 ~blocklength:2 ~stride:4 Dt.int32 in
  let base = pattern (Dt.extent t) in
  let iov = Dt.iovec t ~count:1 ~base in
  check_int "two regions" 2 (List.length iov);
  List.iter
    (fun r -> Alcotest.(check bool) "aliases base" true (Buf.overlaps r base))
    iov;
  check_int "total bytes" (Dt.size t)
    (List.fold_left (fun acc r -> acc + Buf.length r) 0 iov)

let test_signature () =
  let t =
    Dt.struct_ ~blocklengths:[| 2; 1 |] ~displacements_bytes:[| 0; 8 |]
      ~types:[| Dt.int32; Dt.float64 |]
  in
  Alcotest.(check int) "signature length" 3 (List.length (Dt.signature t));
  let t2 = Dt.contiguous 1 t in
  Alcotest.(check bool) "equal signatures" true (Dt.equal_signature t t2);
  Alcotest.(check bool) "different signatures" false
    (Dt.equal_signature t (Dt.contiguous 3 Dt.int32))

let test_stats_blocks () =
  let stats = Stats.create () in
  let t = Dt.vector ~count:4 ~blocklength:1 ~stride:2 Dt.int32 in
  let src = pattern (Dt.extent t) in
  let dst = Buf.create (Dt.size t) in
  ignore (Dt.pack ~stats t ~count:1 ~src ~dst);
  check_int "blocks recorded" 4 (Stats.get stats Ddt_blocks_processed);
  check_int "bytes recorded" 16 (Stats.get stats Bytes_copied)

let test_negative_args () =
  let expect f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect (fun () -> Dt.contiguous (-1) Dt.byte);
  expect (fun () -> Dt.vector ~count:(-1) ~blocklength:1 ~stride:1 Dt.byte);
  expect (fun () -> Dt.vector ~count:1 ~blocklength:(-2) ~stride:1 Dt.byte);
  expect (fun () -> Dt.resized ~lb:0 ~extent:(-8) Dt.byte)

(* --- marshalling --- *)

let test_serialize_roundtrip_cases () =
  let cases =
    [
      Dt.byte;
      Dt.contiguous 5 Dt.int32;
      Dt.vector ~count:3 ~blocklength:2 ~stride:4 Dt.float64;
      Dt.indexed ~blocklengths:[| 2; 1 |] ~displacements:[| 0; 4 |] Dt.int32;
      struct_simple;
      Dt.resized ~lb:0 ~extent:24 struct_simple;
      Dt.subarray ~sizes:[| 4; 6 |] ~subsizes:[| 2; 3 |] ~starts:[| 1; 2 |]
        ~order:`C Dt.int32;
    ]
  in
  List.iter
    (fun t ->
      let t' = Dt.deserialize (Dt.serialize t) in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" (Dt.to_string t))
        true (Dt.equal t t'))
    cases

let test_deserialize_corrupt () =
  let expect f =
    match f () with
    | _ -> Alcotest.fail "expected Corrupt_datatype"
    | exception Dt.Corrupt_datatype _ -> ()
  in
  expect (fun () -> Dt.deserialize (Buf.create 0));
  expect (fun () -> Dt.deserialize (Buf.of_string "\x63"));
  (let good = Dt.serialize (Dt.contiguous 3 Dt.int64) in
   expect (fun () ->
       Dt.deserialize (Buf.sub good ~pos:0 ~len:(Buf.length good - 1))));
  (let good = Dt.serialize Dt.byte in
   let padded = Buf.concat [ good; Buf.create 1 ] in
   expect (fun () -> Dt.deserialize padded))

(* --- property tests --- *)

(* Random datatype generator: shared with the plan/normalize suites
   (see dt_gen.ml, which also adds structural shrinking). *)
let arb_datatype = Dt_gen.arb

let prop_pack_unpack_roundtrip =
  QCheck.Test.make ~name:"datatype: unpack(pack(x)) = x on typed bytes"
    ~count:200
    QCheck.(pair arb_datatype (int_range 1 4))
    (fun (t, count) ->
      let need = Dt.ub t + ((count - 1) * Dt.extent t) + 1 in
      let src = pattern (max need 1) in
      let packed = Buf.create (Dt.packed_size t ~count) in
      ignore (Dt.pack t ~count ~src ~dst:packed);
      let dst = Buf.create (max need 1) in
      Dt.unpack t ~count ~src:packed ~dst;
      let ok = ref true in
      Dt.iter_blocks t ~count ~f:(fun ~disp ~len ->
          for i = disp to disp + len - 1 do
            if Buf.get_u8 src i <> Buf.get_u8 dst i then ok := false
          done);
      !ok)

let prop_pack_range_equiv =
  QCheck.Test.make
    ~name:"datatype: fragmented pack_range = whole pack (any fragment size)"
    ~count:200
    QCheck.(triple arb_datatype (int_range 1 3) (int_range 1 64))
    (fun (t, count, frag) ->
      let psize = Dt.packed_size t ~count in
      QCheck.assume (psize > 0);
      let src = pattern (max 1 (Dt.ub t + ((count - 1) * Dt.extent t))) in
      let whole = Buf.create psize in
      ignore (Dt.pack t ~count ~src ~dst:whole);
      let out = Buf.create psize in
      let off = ref 0 in
      while !off < psize do
        let len = min frag (psize - !off) in
        let n =
          Dt.pack_range t ~count ~src ~packed_off:!off
            ~dst:(Buf.sub out ~pos:!off ~len)
        in
        if n <> len then failwith "short fragment";
        off := !off + len
      done;
      Buf.equal whole out)

let prop_blocks_cover_size =
  QCheck.Test.make ~name:"datatype: block lengths sum to size" ~count:300
    QCheck.(pair arb_datatype (int_range 1 4))
    (fun (t, count) ->
      let total =
        List.fold_left
          (fun acc (_, l) -> acc + l)
          0
          (Dt.block_list t ~count)
      in
      total = Dt.packed_size t ~count)

let prop_signature_size =
  QCheck.Test.make ~name:"datatype: signature sizes sum to size" ~count:300
    arb_datatype
    (fun t ->
      List.fold_left (fun acc p -> acc + Dt.predefined_size p) 0 (Dt.signature t)
      = Dt.size t)

let prop_serialize_roundtrip =
  QCheck.Test.make ~name:"datatype: serialize/deserialize identity" ~count:300
    arb_datatype
    (fun t -> Dt.equal t (Dt.deserialize (Dt.serialize t)))

let prop_iovec_matches_pack =
  QCheck.Test.make ~name:"datatype: concat(iovec) = pack" ~count:200
    QCheck.(pair arb_datatype (int_range 1 3))
    (fun (t, count) ->
      let src = pattern (max 1 (Dt.ub t + ((count - 1) * Dt.extent t))) in
      let packed = Buf.create (Dt.packed_size t ~count) in
      ignore (Dt.pack t ~count ~src ~dst:packed);
      let iov = Dt.iovec t ~count ~base:src in
      Buf.equal packed (Buf.concat iov))

let suite =
  let tc = Alcotest.test_case in
  ( "datatype",
    [
      tc "predefined sizes" `Quick test_predefined_sizes;
      tc "contiguous" `Quick test_contiguous;
      tc "contiguous zero count" `Quick test_contiguous_zero;
      tc "vector" `Quick test_vector;
      tc "vector unit-stride merges" `Quick test_vector_unit_stride_merges;
      tc "hvector" `Quick test_hvector;
      tc "indexed" `Quick test_indexed;
      tc "indexed_block" `Quick test_indexed_block;
      tc "hindexed length mismatch" `Quick test_hindexed_mismatch;
      tc "struct with gap" `Quick test_struct_with_gap;
      tc "struct no gap is contiguous" `Quick test_struct_no_gap_contiguous;
      tc "resized tiling" `Quick test_resized_tiling;
      tc "subarray 2d" `Quick test_subarray_2d;
      tc "subarray fortran order" `Quick test_subarray_fortran;
      tc "subarray invalid region" `Quick test_subarray_invalid;
      tc "pack contiguous is identity" `Quick test_pack_contiguous;
      tc "pack vector gathers" `Quick test_pack_vector_gathers;
      tc "roundtrip struct with gap" `Quick test_roundtrip_struct_gap;
      tc "unpack wrong size" `Quick test_unpack_wrong_size;
      tc "pack_range fragments = whole" `Quick test_pack_range_full_equiv;
      tc "pack_range past end" `Quick test_pack_range_past_end;
      tc "unpack_range fragments" `Quick test_unpack_range_fragments;
      tc "iovec zero copy" `Quick test_iovec_zero_copy;
      tc "signature" `Quick test_signature;
      tc "stats count blocks" `Quick test_stats_blocks;
      tc "negative arguments" `Quick test_negative_args;
      tc "serialize roundtrip cases" `Quick test_serialize_roundtrip_cases;
      tc "deserialize corrupt input" `Quick test_deserialize_corrupt;
      QCheck_alcotest.to_alcotest prop_pack_unpack_roundtrip;
      QCheck_alcotest.to_alcotest prop_pack_range_equiv;
      QCheck_alcotest.to_alcotest prop_blocks_cover_size;
      QCheck_alcotest.to_alcotest prop_signature_size;
      QCheck_alcotest.to_alcotest prop_iovec_matches_pack;
      QCheck_alcotest.to_alcotest prop_serialize_roundtrip;
    ] )
