(* Tests for the pickle-like serializer. *)

module Buf = Mpicd_buf.Buf
module P = Mpicd_pickle.Pickle

let check_int = Alcotest.(check int)

let roundtrip v = P.loads (P.dumps v)

let roundtrip_oob ?oob_threshold v =
  let header, buffers = P.dumps_oob ?oob_threshold v in
  P.loads ~buffers header

let check_rt name v =
  Alcotest.(check bool) (name ^ " (in-band)") true (P.equal v (roundtrip v));
  Alcotest.(check bool) (name ^ " (oob)") true (P.equal v (roundtrip_oob v))

let test_scalars () =
  check_rt "none" P.None_;
  check_rt "true" (P.Bool true);
  check_rt "false" (P.Bool false);
  check_rt "int" (P.Int 123456789L);
  check_rt "negative int" (P.Int (-42L));
  check_rt "int64 extremes" (P.Int Int64.min_int);
  check_rt "float" (P.Float 3.14159);
  check_rt "float special" (P.Float infinity);
  check_rt "str" (P.Str "hello \xc3\xa9\xc3\xa0");
  check_rt "empty str" (P.Str "")

let test_containers () =
  check_rt "list" (P.List [ P.Int 1L; P.Str "two"; P.Float 3.0 ]);
  check_rt "empty list" (P.List []);
  check_rt "tuple" (P.Tuple [ P.Bool true; P.None_ ]);
  check_rt "dict"
    (P.Dict [ (P.Str "k", P.Int 1L); (P.Int 2L, P.List [ P.None_ ]) ]);
  check_rt "nested"
    (P.Dict
       [
         ( P.Str "data",
           P.List [ P.Tuple [ P.Int 1L; P.Dict [ (P.Str "x", P.Float 0.5) ] ] ]
         );
       ])

let test_bytes_roundtrip () =
  let b = Buf.of_string "binary\x00data\xff" in
  check_rt "bytes" (P.Bytes b)

let test_ndarray_roundtrip () =
  let a = P.ndarray_of_floats [| 1.0; 2.5; -3.0; 4.25 |] in
  check_rt "1d f64" (P.Ndarray a);
  let m = P.ndarray ~dtype:P.I32 [| 3; 4 |] in
  for i = 0 to 11 do
    Buf.set_i32 m.data (4 * i) (Int32.of_int (i * i))
  done;
  check_rt "2d i32" (P.Ndarray m);
  check_rt "0-dim edge" (P.Ndarray (P.ndarray [||]))

let test_float_array_helpers () =
  let fs = [| 1.5; -2.0; 0.0; 99.75 |] in
  Alcotest.(check (array (float 0.))) "floats roundtrip" fs
    (P.floats_of_ndarray (P.ndarray_of_floats fs))

let test_header_small_for_oob () =
  (* The paper: array metadata header ~120 bytes regardless of payload. *)
  let small = P.Ndarray (P.ndarray [| 16 |]) in
  let big = P.Ndarray (P.ndarray [| 1024 * 1024 |]) in
  let h1, _ = P.dumps_oob small in
  let h2, _ = P.dumps_oob big in
  Alcotest.(check bool) "headers tiny and size-independent" true
    (Buf.length h1 = Buf.length h2 && Buf.length h1 < 128)

let test_oob_zero_copy_send () =
  let a = P.ndarray [| 1000 |] in
  let _, buffers = P.dumps_oob (P.Ndarray a) in
  match buffers with
  | [ b ] ->
      Alcotest.(check bool) "oob buffer aliases array data" true
        (Buf.same_memory b a.data)
  | _ -> Alcotest.fail "expected exactly one oob buffer"

let test_oob_zero_copy_recv () =
  let a = P.ndarray_of_floats (Array.init 256 float_of_int) in
  let header, buffers = P.dumps_oob (P.Ndarray a) in
  match (P.loads ~buffers header, buffers) with
  | P.Ndarray got, [ b ] ->
      Alcotest.(check bool) "reconstructed array aliases supplied buffer" true
        (Buf.same_memory got.data b)
  | _ -> Alcotest.fail "unexpected shape"

let test_oob_threshold () =
  let small = P.Bytes (Buf.create 10) in
  let big = P.Bytes (Buf.create 4096) in
  let _, b1 = P.dumps_oob ~oob_threshold:1024 small in
  let _, b2 = P.dumps_oob ~oob_threshold:1024 big in
  check_int "small bytes stay in-band" 0 (List.length b1);
  check_int "big bytes go oob" 1 (List.length b2)

let test_inband_has_no_buffers () =
  let v = P.List [ P.Ndarray (P.ndarray [| 5000 |]); P.Bytes (Buf.create 5000) ] in
  let stream = P.dumps v in
  Alcotest.(check bool) "stream carries the payload" true
    (Buf.length stream > 2 * 5000)

let test_multiple_oob_buffers_order () =
  let arrays = List.init 5 (fun i -> P.ndarray [| 100 * (i + 1) |]) in
  List.iteri (fun i a -> Buf.fill a.P.data (Char.chr (i + 65))) arrays;
  let v = P.List (List.map (fun a -> P.Ndarray a) arrays) in
  let header, buffers = P.dumps_oob v in
  check_int "five buffers" 5 (List.length buffers);
  (* order matches traversal order *)
  List.iteri
    (fun i b -> check_int (Printf.sprintf "buffer %d size" i) (800 * (i + 1)) (Buf.length b))
    buffers;
  Alcotest.(check bool) "roundtrip" true (P.equal v (P.loads ~buffers header))

let test_corrupt_stream () =
  let check_corrupt name f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": expected Corrupt")
    | exception P.Corrupt _ -> ()
  in
  check_corrupt "empty" (fun () -> P.loads (Buf.create 0));
  check_corrupt "bad opcode" (fun () -> P.loads (Buf.of_string "\x01"));
  check_corrupt "truncated int" (fun () -> P.loads (Buf.of_string "\x49\x01"));
  (let good = P.dumps (P.Str "hello") in
   let cut = Buf.sub good ~pos:0 ~len:(Buf.length good - 2) in
   check_corrupt "truncated str" (fun () -> P.loads cut));
  (* missing oob buffer *)
  let header, _ = P.dumps_oob (P.Ndarray (P.ndarray [| 4096 |])) in
  check_corrupt "missing buffers" (fun () -> P.loads header);
  (* wrong buffer length *)
  check_corrupt "wrong buffer size" (fun () ->
      P.loads ~buffers:[ Buf.create 3 ] header)

let test_missing_stop () =
  let good = P.dumps (P.Int 5L) in
  let cut = Buf.sub good ~pos:0 ~len:(Buf.length good - 1) in
  match P.loads cut with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception P.Corrupt _ -> ()

let test_visit_count () =
  check_int "scalar" 1 (P.visit_count (P.Int 0L));
  check_int "list of 3" 4 (P.visit_count (P.List [ P.Int 0L; P.Int 1L; P.Int 2L ]));
  check_int "dict" 3 (P.visit_count (P.Dict [ (P.Str "k", P.Int 0L) ]))

let test_payload_bytes () =
  let v =
    P.List [ P.Ndarray (P.ndarray [| 100 |]); P.Bytes (Buf.create 36); P.Int 1L ]
  in
  check_int "payload bytes" (800 + 36) (P.payload_bytes v)

(* property: random object graphs roundtrip under both protocols *)
let gen_pickle =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return P.None_;
        map (fun b -> P.Bool b) bool;
        map (fun i -> P.Int (Int64.of_int i)) int;
        map (fun f -> P.Float f) (float_bound_inclusive 1e6);
        map (fun s -> P.Str s) (string_size (0 -- 20));
        map (fun n -> P.Ndarray (P.ndarray [| n |])) (0 -- 64);
      ]
  in
  let rec go depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun l -> P.List l) (list_size (0 -- 4) (go (depth - 1))));
          (1, map (fun l -> P.Tuple l) (list_size (0 -- 4) (go (depth - 1))));
          ( 1,
            map
              (fun l -> P.Dict (List.mapi (fun i v -> (P.Int (Int64.of_int i), v)) l))
              (list_size (0 -- 3) (go (depth - 1))) );
        ]
  in
  go 3

let prop_roundtrip_inband =
  QCheck.Test.make ~name:"pickle: in-band roundtrip" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" P.pp) gen_pickle)
    (fun v -> P.equal v (P.loads (P.dumps v)))

let prop_roundtrip_oob =
  QCheck.Test.make ~name:"pickle: oob roundtrip (threshold 16)" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" P.pp) gen_pickle)
    (fun v ->
      let header, buffers = P.dumps_oob ~oob_threshold:16 v in
      P.equal v (P.loads ~buffers header))

(* A shape whose element count overflows a native int must not load as
   an empty array: [2^31 * 2^31 * 2] wraps to 0, which would match an
   empty in-band payload. *)
let test_shape_overflow_rejected () =
  let stream =
    Buf.of_string
      "\x41\x04\x03\x00\x00\x00\x80\x00\x00\x00\x80\x02\x00\x00\x00\x42\x00\x00\x00\x00\x2e"
  in
  match P.loads stream with
  | v -> Alcotest.failf "loaded %a" P.pp v
  | exception P.Corrupt _ -> ()

(* One object that uses every opcode: its streams are pinned byte for
   byte. *)
let pinned_object () =
  let pattern n =
    let b = Buf.create n in
    for i = 0 to n - 1 do
      Buf.set_u8 b i ((i * 7) + 3)
    done;
    b
  in
  let arr = P.ndarray ~dtype:P.I32 [| 2; 3 |] in
  for i = 0 to 5 do
    Buf.set_i32 arr.P.data (4 * i) (Int32.of_int (i - 2))
  done;
  P.Dict
    [
      (P.Str "name", P.Str "mpicd");
      ( P.Str "meta",
        P.Tuple
          [ P.Int 3L; P.Tuple [ P.Float 1.5; P.None_; P.Bool true; P.Bool false ] ] );
      (P.Str "small", P.Bytes (pattern 5));
      (P.Str "big", P.Bytes (pattern 20));
      (P.Str "arr", P.Ndarray arr);
      (P.Str "list", P.List [ P.Int (-1L) ]);
    ]

let hex b =
  String.concat ""
    (List.init (Buf.length b) (fun i -> Printf.sprintf "%02x" (Buf.get_u8 b i)))

(* The expected streams, one value per segment, captured from the
   writer that grew a [Stdlib.Buffer]. *)
let pinned_stream ~big ~arr =
  String.concat ""
    [
      "6406000000" (* dict of 6 pairs *);
      "55040000006e616d65" (* "name" *);
      "55050000006d70696364" (* "mpicd" *);
      "55040000006d657461" (* "meta" *);
      "7402000000" (* tuple of 2 *);
      "490300000000000000" (* 3L *);
      "7404000000" (* tuple of 4 *);
      "47000000000000f83f" (* 1.5 *);
      "4e5446" (* None, true, false *);
      "5505000000736d616c6c" (* "small" *);
      "4205000000030a11181f" (* 5 bytes in-band *);
      "5503000000626967" (* "big" *);
      big;
      "5503000000617272" (* "arr" *);
      "4103020200000003000000" (* I32 ndarray of shape [2; 3] *);
      arr;
      "55040000006c697374" (* "list" *);
      "6c0100000049ffffffffffffffff" (* list of 1: -1L *);
      "2e" (* stop *);
    ]

let test_pinned_streams () =
  let v = pinned_object () in
  Alcotest.(check string) "dumps"
    (pinned_stream
       ~big:"4214000000030a11181f262d343b424950575e656c737a8188" (* in-band *)
       ~arr:"4218000000feffffffffffffff00000000010000000200000003000000")
    (hex (P.dumps v));
  let header, buffers = P.dumps_oob ~oob_threshold:16 v in
  Alcotest.(check string) "dumps_oob header"
    (pinned_stream
       ~big:"4f0000000014000000" (* out-of-band buffer 0, 20 bytes *)
       ~arr:"4f0100000018000000" (* out-of-band buffer 1, 24 bytes *))
    (hex header);
  Alcotest.(check (list string)) "dumps_oob buffers"
    [
      "030a11181f262d343b424950575e656c737a8188";
      "feffffffffffffff00000000010000000200000003000000";
    ]
    (List.map hex buffers)

(* The stream length from the format alone: opcode 1 B, lengths and
   counts i32, scalars i64, one stop byte. *)
let expected_size ?oob_threshold v =
  let payload ~force_oob b =
    match oob_threshold with
    | Some thr when force_oob || Buf.length b >= thr -> 9
    | _ -> 5 + Buf.length b
  in
  let rec go = function
    | P.None_ | P.Bool _ -> 1
    | P.Int _ | P.Float _ -> 9
    | P.Str s -> 5 + String.length s
    | P.Bytes b -> payload ~force_oob:false b
    | P.List l | P.Tuple l -> List.fold_left (fun a v -> a + go v) 5 l
    | P.Dict kv -> List.fold_left (fun a (k, v) -> a + go k + go v) 5 kv
    | P.Ndarray a ->
        3 + (4 * Array.length a.P.shape) + payload ~force_oob:true a.P.data
  in
  go v + 1

let gen_with_bytes =
  let open QCheck.Gen in
  let bytes_ =
    map
      (fun s -> P.Bytes (Buf.of_string s))
      (string_size (0 -- 40))
  in
  let nd =
    map2
      (fun dtype dims -> P.Ndarray (P.ndarray ~dtype (Array.of_list dims)))
      (oneofl [ P.F64; P.F32; P.I64; P.I32; P.U8 ])
      (list_size (0 -- 3) (0 -- 5))
  in
  frequency
    [
      (2, gen_pickle);
      (1, bytes_);
      (1, nd);
      ( 1,
        map (fun l -> P.Tuple l) (list_size (0 -- 5) (oneof [ gen_pickle; bytes_; nd ])) );
    ]

let prop_exact_size =
  QCheck.Test.make ~name:"pickle: stream length is the precomputed size" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" P.pp) gen_with_bytes)
    (fun v ->
      let s = P.dumps v in
      let header, buffers = P.dumps_oob ~oob_threshold:16 v in
      Buf.length s = expected_size v
      && P.equal v (P.loads s)
      && Buf.length header = expected_size ~oob_threshold:16 v
      && P.equal v (P.loads ~buffers header))

(* The A5 object: 64 arrays of 128 KiB.  Its 8 MiB stream is written
   straight into one buffer, so the OCaml heap sees only the walk. *)
let test_dumps_heap_words () =
  let obj =
    P.List (List.init 64 (fun _ -> P.Ndarray (P.ndarray ~dtype:P.U8 [| 128 * 1024 |])))
  in
  let words () =
    let minor, _, major = Gc.counters () in
    minor +. major
  in
  let w0 = words () in
  let s = P.dumps obj in
  let used = words () -. w0 in
  check_int "stream bytes" ((8 * 1024 * 1024) + (64 * 12) + 6) (Buf.length s);
  if used > 65536. then Alcotest.failf "dumps allocated %.0f heap words" used

let suite =
  let tc = Alcotest.test_case in
  ( "pickle",
    [
      tc "scalars" `Quick test_scalars;
      tc "containers" `Quick test_containers;
      tc "bytes" `Quick test_bytes_roundtrip;
      tc "ndarray" `Quick test_ndarray_roundtrip;
      tc "float array helpers" `Quick test_float_array_helpers;
      tc "oob header small & size-independent" `Quick test_header_small_for_oob;
      tc "oob zero-copy on send" `Quick test_oob_zero_copy_send;
      tc "oob zero-copy on receive" `Quick test_oob_zero_copy_recv;
      tc "oob threshold" `Quick test_oob_threshold;
      tc "in-band stream carries payload" `Quick test_inband_has_no_buffers;
      tc "multiple oob buffers in order" `Quick test_multiple_oob_buffers_order;
      tc "corrupt streams rejected" `Quick test_corrupt_stream;
      tc "missing stop rejected" `Quick test_missing_stop;
      tc "visit_count" `Quick test_visit_count;
      tc "payload_bytes" `Quick test_payload_bytes;
      QCheck_alcotest.to_alcotest prop_roundtrip_inband;
      QCheck_alcotest.to_alcotest prop_roundtrip_oob;
      tc "ndarray shape overflow rejected" `Quick test_shape_overflow_rejected;
      tc "streams pinned byte for byte" `Quick test_pinned_streams;
      tc "dumps of 8 MiB allocates no stream on the heap" `Quick test_dumps_heap_words;
      QCheck_alcotest.to_alcotest prop_exact_size;
    ] )
