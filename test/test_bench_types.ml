(* Tests for the paper's §V-A benchmark types. *)

module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype
module Plan = Mpicd_datatype.Plan
module Mpi = Mpicd.Mpi
module Stats = Mpicd_simnet.Stats
module B = Mpicd_bench_types.Bench_types

let check_int = Alcotest.(check int)

(* --- double-vec --- *)

let test_dv_generate_shapes () =
  let t = B.Double_vec.generate ~subvec_bytes:1024 ~total_bytes:4096 in
  check_int "four subvectors" 4 (Array.length t);
  check_int "total" 4096 (B.Double_vec.total_bytes t);
  (* message smaller than subvector: single subvector of message size *)
  let small = B.Double_vec.generate ~subvec_bytes:1024 ~total_bytes:256 in
  check_int "one subvector" 1 (Array.length small);
  check_int "of message size" 256 (Buf.length small.(0))

let test_dv_manual_roundtrip () =
  let t = B.Double_vec.generate ~subvec_bytes:100 ~total_bytes:700 in
  let packed = Buf.create (B.Double_vec.manual_pack_size t) in
  B.Double_vec.manual_pack t ~dst:packed;
  let sink = B.Double_vec.make_sink ~subvec_bytes:100 ~total_bytes:700 in
  B.Double_vec.manual_unpack ~src:packed sink;
  Alcotest.(check bool) "equal" true (B.Double_vec.equal t sink)

let test_dv_manual_shape_mismatch () =
  let t = B.Double_vec.generate ~subvec_bytes:100 ~total_bytes:300 in
  let packed = Buf.create (B.Double_vec.manual_pack_size t) in
  B.Double_vec.manual_pack t ~dst:packed;
  let wrong = B.Double_vec.make_sink ~subvec_bytes:100 ~total_bytes:200 in
  match B.Double_vec.manual_unpack ~src:packed wrong with
  | () -> Alcotest.fail "expected mismatch"
  | exception Invalid_argument _ -> ()

let test_dv_custom_over_mpi () =
  let w = Mpi.create_world ~size:2 () in
  let src = B.Double_vec.generate ~subvec_bytes:512 ~total_bytes:8192 in
  let sink = B.Double_vec.make_sink ~subvec_bytes:512 ~total_bytes:8192 in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0
          (Mpi.Custom { dt = B.Double_vec.custom_dt; obj = src; count = 1 })
      else begin
        let st =
          Mpi.recv comm
            (Mpi.Custom { dt = B.Double_vec.custom_dt; obj = sink; count = 1 })
        in
        (* 16 subvectors: 64B header + 8192B regions *)
        check_int "wire bytes" (64 + 8192) st.len
      end);
  Alcotest.(check bool) "delivered" true (B.Double_vec.equal src sink)

let test_dv_custom_zero_copy () =
  let w = Mpi.create_world ~size:2 () in
  let stats = Mpi.world_stats w in
  let total = 1 lsl 20 in
  let src = B.Double_vec.generate ~subvec_bytes:4096 ~total_bytes:total in
  let sink = B.Double_vec.make_sink ~subvec_bytes:4096 ~total_bytes:total in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0
          (Mpi.Custom { dt = B.Double_vec.custom_dt; obj = src; count = 1 })
      else
        ignore
          (Mpi.recv comm
             (Mpi.Custom { dt = B.Double_vec.custom_dt; obj = sink; count = 1 })));
  Alcotest.(check bool) "payload not CPU-copied" true
    (Stats.get stats Bytes_copied < total / 100)

let is_zero b = Buf.equal b (Buf.create (Buf.length b))

(* Subvector [s] holds byte [(31 i + s + 11) mod 256] at [i], for any
   shape: a message smaller than a subvector, a total that is not a
   multiple of it, and more than 256 subvectors (seeds that wrap). *)
let test_dv_generate_bytes () =
  List.iter
    (fun (subvec, total) ->
      let t = B.Double_vec.generate ~subvec_bytes:subvec ~total_bytes:total in
      Array.iteri
        (fun s b ->
          for i = 0 to Buf.length b - 1 do
            if Buf.get_u8 b i <> ((31 * i) + s + 11) land 0xff then
              Alcotest.failf "(%d, %d): subvector %d byte %d" subvec total s i
          done)
        t)
    [ (1024, 256); (1024, 4096); (100, 700); (300, 1000); (64, 65536); (4096, 1 lsl 20) ]

(* The subvectors of a generated value and of a sink are disjoint
   views, and a sink is all zero. *)
let test_dv_views_disjoint () =
  List.iter
    (fun (subvec, total) ->
      let src = B.Double_vec.generate ~subvec_bytes:subvec ~total_bytes:total in
      let sink = B.Double_vec.make_sink ~subvec_bytes:subvec ~total_bytes:total in
      let all = Array.append src sink in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              if i < j && Buf.overlaps a b then
                Alcotest.failf "(%d, %d): views %d and %d overlap" subvec total i j)
            all)
        all;
      if not (Array.for_all is_zero sink) then
        Alcotest.failf "(%d, %d): sink not zero" subvec total)
    [ (1024, 256); (100, 700); (64, 4096) ]

(* The manual packers copy each run of adjacent subvectors as one
   span: views of one buffer with a gap, out of order and empty, and a
   view of a second buffer, pack as their lengths and then their bytes
   in order, and unpack into a sink of that shape, gaps untouched. *)
let test_dv_manual_runs () =
  let shape b other = [| Buf.sub b ~pos:0 ~len:8; Buf.sub b ~pos:8 ~len:8;
                         Buf.sub b ~pos:20 ~len:4; Buf.sub b ~pos:12 ~len:4; other;
                         Buf.sub b ~pos:24 ~len:0; Buf.sub b ~pos:24 ~len:6 |] in
  let a = Buf.create 40 and b = Buf.create 8 in
  B.fill_pattern ~seed:1 a;
  B.fill_pattern ~seed:2 b;
  let t = shape a b in
  let n = Array.length t in
  let packed = Buf.create (B.Double_vec.manual_pack_size t) in
  B.Double_vec.manual_pack t ~dst:packed;
  check_int "count" n (Buf.get_u32 packed 0);
  Array.iteri (fun i v -> check_int "length" (Buf.length v) (Buf.get_u32 packed (4 + (4 * i)))) t;
  let bytes = String.concat "" (Array.to_list (Array.map Buf.to_string t)) in
  Alcotest.(check string) "bytes in order" bytes
    (Buf.to_string (Buf.sub packed ~pos:(4 + (4 * n)) ~len:(String.length bytes)));
  let sa = Buf.create 40 and sb = Buf.create 8 in
  let sink = shape sa sb in
  B.Double_vec.manual_unpack ~src:packed sink;
  Alcotest.(check bool) "unpacked" true (B.Double_vec.equal t sink);
  List.iter
    (fun (pos, len) ->
      Alcotest.(check bool)
        (Printf.sprintf "gap [%d, %d) untouched" pos (pos + len))
        true (is_zero (Buf.sub sa ~pos ~len)))
    [ (16, 4); (30, 10) ]

(* [clear] zeroes every subvector and nothing else: a generated value,
   and views of one patterned buffer with a gap, out of order, and from
   a second buffer. *)
let test_dv_clear () =
  let t = B.Double_vec.generate ~subvec_bytes:64 ~total_bytes:4096 in
  B.Double_vec.clear t;
  Alcotest.(check bool) "generated value zeroed" true (Array.for_all is_zero t);
  let patterned n =
    let b = Buf.create n in
    B.fill_pattern b;
    b
  in
  let a = patterned 40 and pristine = patterned 40 in
  let view b pos len = Buf.sub b ~pos ~len in
  let t = [| view a 0 8; view a 8 8; view a 20 4; view a 12 4; patterned 8; view a 24 0 |] in
  B.Double_vec.clear t;
  Alcotest.(check bool) "views zeroed" true (Array.for_all is_zero t);
  List.iter
    (fun (pos, len) ->
      Alcotest.(check bool)
        (Printf.sprintf "gap [%d, %d) kept" pos (pos + len))
        true
        (Buf.equal (view a pos len) (view pristine pos len)))
    [ (16, 4); (24, 16) ]

(* The receive side checks each header fragment against its own
   shape: a fragment that differs only in its last byte still raises
   [Custom.Error 86], and a matching one passes. *)
let test_dv_header_mismatch () =
  let t = B.Double_vec.generate ~subvec_bytes:100 ~total_bytes:700 in
  let op = Mpicd.Custom.start B.Double_vec.custom_dt t ~count:1 in
  let header = Buf.create (Mpicd.Custom.packed_size op) in
  ignore (Mpicd.Custom.pack op ~offset:0 ~dst:header);
  List.iter
    (fun (offset, len) ->
      let frag = Buf.copy (Buf.sub header ~pos:offset ~len) in
      Mpicd.Custom.unpack op ~offset ~src:frag;
      Buf.set_u8 frag (len - 1) (Buf.get_u8 frag (len - 1) lxor 1);
      match Mpicd.Custom.unpack op ~offset ~src:frag with
      | () -> Alcotest.failf "fragment (%d, %d): mismatch accepted" offset len
      | exception Mpicd.Custom.Error code ->
          check_int (Printf.sprintf "fragment (%d, %d) code" offset len) 86 code)
    [ (0, 28); (0, 5); (8, 9); (27, 1) ];
  Mpicd.Custom.finish op

(* The header is one little-endian 32-bit length per subvector, and
   any window of it, including one that cuts a length, packs those
   bytes and unpacks them cleanly; every byte changed in a window
   raises [Custom.Error 86].  Lengths above 255 make every byte of a
   length count. *)
let test_dv_header_windows () =
  let lens = [| 300; 70_000; 5; 65_794 |] in
  let all = Buf.create (Array.fold_left ( + ) 0 lens) in
  let pos = ref 0 in
  let t =
    Array.map
      (fun len ->
        let v = Buf.sub all ~pos:!pos ~len in
        pos := !pos + len;
        v)
      lens
  in
  let n = 4 * Array.length lens in
  let oracle = Buf.create n in
  Array.iteri (fun i len -> Buf.set_i32 oracle (4 * i) (Int32.of_int len)) lens;
  let op = Mpicd.Custom.start B.Double_vec.custom_dt t ~count:1 in
  check_int "packed size" n (Mpicd.Custom.packed_size op);
  for offset = 0 to n - 1 do
    for len = 1 to n - offset do
      let where = Printf.sprintf "window (%d, %d)" offset len in
      let dst = Buf.create len in
      check_int (where ^ " packed") len (Mpicd.Custom.pack op ~offset ~dst);
      let want = Buf.sub oracle ~pos:offset ~len in
      Alcotest.(check string)
        (where ^ " bytes") (Buf.to_string want) (Buf.to_string dst);
      Mpicd.Custom.unpack op ~offset ~src:dst;
      for j = 0 to len - 1 do
        let bad = Buf.copy dst in
        Buf.set_u8 bad j (Buf.get_u8 bad j lxor 0x10);
        match Mpicd.Custom.unpack op ~offset ~src:bad with
        | () -> Alcotest.failf "%s: byte %d changed, accepted" where j
        | exception Mpicd.Custom.Error code -> check_int (where ^ " code") 86 code
      done
    done
  done;
  let dst = Buf.create 8 in
  check_int "short at the end" 3 (Mpicd.Custom.pack op ~offset:(n - 3) ~dst);
  Mpicd.Custom.finish op

(* A receiver whose subvectors have the same count and total as the
   sender's but other lengths fails the receive with code 86. *)
let test_dv_shape_mismatch_over_mpi () =
  let w = Mpi.create_world ~size:2 () in
  let src = B.Double_vec.generate ~subvec_bytes:100 ~total_bytes:700 in
  let all = Buf.create 700 in
  let sink =
    Array.of_list
      (List.map2
         (fun pos len -> Buf.sub all ~pos ~len)
         [ 0; 50; 200; 300; 400; 500; 600 ]
         [ 50; 150; 100; 100; 100; 100; 100 ])
  in
  let saw = ref false in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0
          (Mpi.Custom { dt = B.Double_vec.custom_dt; obj = src; count = 1 })
      else
        match
          Mpi.recv comm
            (Mpi.Custom { dt = B.Double_vec.custom_dt; obj = sink; count = 1 })
        with
        | _ -> Alcotest.fail "expected a shape mismatch"
        | exception Mpi.Mpi_error (Mpi.Callback_failed 86) -> saw := true);
  Alcotest.(check bool) "mismatch seen" true !saw

(* --- struct types (generic checks over the three modules) --- *)

let struct_cases : (string * (module B.STRUCT)) list =
  [
    ("struct-vec", (module B.Struct_vec));
    ("struct-simple", (module B.Struct_simple));
    ("struct-simple-no-gap", (module B.Struct_simple_no_gap));
  ]

let test_struct_sizes () =
  check_int "struct-vec sizeof" 8216 B.Struct_vec.sizeof;
  check_int "struct-vec packed" 8212 B.Struct_vec.packed_elem_size;
  check_int "struct-simple sizeof" 24 B.Struct_simple.sizeof;
  check_int "struct-simple packed" 20 B.Struct_simple.packed_elem_size;
  check_int "no-gap sizeof" 16 B.Struct_simple_no_gap.sizeof;
  check_int "no-gap packed" 16 B.Struct_simple_no_gap.packed_elem_size

let test_struct_manual_roundtrip () =
  List.iter
    (fun (name, (module S : B.STRUCT)) ->
      let count = 5 in
      let src = S.generate ~count in
      let packed = Buf.create (count * S.packed_elem_size) in
      S.manual_pack src ~count ~dst:packed;
      let sink = S.make_sink ~count in
      S.manual_unpack ~src:packed sink ~count;
      Alcotest.(check bool) (name ^ " manual roundtrip") true
        (S.equal_elems src sink ~count))
    struct_cases

let test_struct_custom_over_mpi () =
  List.iter
    (fun (name, (module S : B.STRUCT)) ->
      let count = 3 in
      let w = Mpi.create_world ~size:2 () in
      let src = S.generate ~count in
      let sink = S.make_sink ~count in
      Mpi.run w (fun comm ->
          if Mpi.rank comm = 0 then
            Mpi.send comm ~dst:1 ~tag:0
              (Mpi.Custom { dt = S.custom_dt; obj = src; count })
          else
            ignore
              (Mpi.recv comm (Mpi.Custom { dt = S.custom_dt; obj = sink; count })));
      Alcotest.(check bool) (name ^ " custom roundtrip") true
        (S.equal_elems src sink ~count))
    struct_cases

let test_struct_derived_over_mpi () =
  List.iter
    (fun (name, (module S : B.STRUCT)) ->
      let count = 4 in
      let w = Mpi.create_world ~size:2 () in
      let src = S.generate ~count in
      let sink = S.make_sink ~count in
      Mpi.run w (fun comm ->
          if Mpi.rank comm = 0 then
            Mpi.send comm ~dst:1 ~tag:0
              (Mpi.Typed { dt = S.derived; count; base = src })
          else
            ignore
              (Mpi.recv comm (Mpi.Typed { dt = S.derived; count; base = sink })));
      Alcotest.(check bool) (name ^ " derived roundtrip") true
        (S.equal_elems src sink ~count))
    struct_cases

let test_methods_agree_on_wire_content () =
  (* custom and manual-pack must deliver the same element bytes *)
  let count = 2 in
  let src = B.Struct_simple.generate ~count in
  let packed = Buf.create (count * B.Struct_simple.packed_elem_size) in
  B.Struct_simple.manual_pack src ~count ~dst:packed;
  let sink1 = B.Struct_simple.make_sink ~count in
  B.Struct_simple.manual_unpack ~src:packed sink1 ~count;
  let w = Mpi.create_world ~size:2 () in
  let sink2 = B.Struct_simple.make_sink ~count in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0
          (Mpi.Custom { dt = B.Struct_simple.custom_dt; obj = src; count })
      else
        ignore
          (Mpi.recv comm
             (Mpi.Custom { dt = B.Struct_simple.custom_dt; obj = sink2; count })));
  Alcotest.(check bool) "agree" true
    (B.Struct_simple.equal_elems sink1 sink2 ~count)

let test_no_gap_custom_needs_no_packing () =
  (* whole-region type: a send must invoke zero pack callbacks *)
  let w = Mpi.create_world ~size:2 () in
  let stats = Mpi.world_stats w in
  let count = 10 in
  let src = B.Struct_simple_no_gap.generate ~count in
  let sink = B.Struct_simple_no_gap.make_sink ~count in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0
          (Mpi.Custom { dt = B.Struct_simple_no_gap.custom_dt; obj = src; count })
      else
        ignore
          (Mpi.recv comm
             (Mpi.Custom
                { dt = B.Struct_simple_no_gap.custom_dt; obj = sink; count })));
  check_int "no pack callbacks" 0 (Stats.get stats Pack_callbacks);
  Alcotest.(check bool) "delivered" true
    (B.Struct_simple_no_gap.equal_elems src sink ~count)

(* The packed stream of [count] elements, by a loop over the layout's
   fields: every field in layout order, or (for the custom callbacks)
   every field but the zero-copy region field. *)
let reference_stream (module S : B.STRUCT) ~skip base ~count =
  let fields =
    List.filter
      (fun (name, _, _) -> Some name <> skip)
      (Mpicd_derive.Derive.fields_of S.layout)
  in
  let per_elem = List.fold_left (fun a (_, _, bytes) -> a + bytes) 0 fields in
  let out = Buf.create (count * per_elem) in
  let pos = ref 0 in
  for e = 0 to count - 1 do
    List.iter
      (fun (_, off, bytes) ->
        for k = 0 to bytes - 1 do
          Buf.set out (!pos + k) (Buf.get base ((e * S.sizeof) + off + k))
        done;
        pos := !pos + bytes)
      fields
  done;
  out

(* (module, region field) for each struct type *)
let struct_regions : (string * (module B.STRUCT) * string option) list =
  [
    ("struct-vec", (module B.Struct_vec), Some "data");
    ("struct-simple", (module B.Struct_simple), None);
    ("struct-simple-no-gap", (module B.Struct_simple_no_gap), None);
  ]

(* Every window [offset, offset + window) of the custom stream packs to
   the reference bytes and unpacks them to the same element bytes. *)
let test_struct_custom_windows () =
  List.iter
    (fun (name, ((module S : B.STRUCT) as m), region) ->
      let count = 3 in
      let src = S.generate ~count in
      let want = reference_stream m ~skip:region src ~count in
      let op = Mpicd.Custom.start S.custom_dt src ~count in
      let total = Mpicd.Custom.packed_size op in
      let expect_total = if S.pieces_per_elem = 0 then 0 else Buf.length want in
      check_int (name ^ " packed size") expect_total total;
      for offset = 0 to total do
        for window = 1 to total - offset + 2 do
          let dst = Buf.create window in
          let n = Mpicd.Custom.pack op ~offset ~dst in
          let expect_n = min window (total - offset) in
          check_int
            (Printf.sprintf "%s pack (%d, %d) bytes" name offset window)
            expect_n n;
          if
            not
              (Buf.equal (Buf.sub dst ~pos:0 ~len:n) (Buf.sub want ~pos:offset ~len:n))
          then Alcotest.failf "%s pack (%d, %d): wrong bytes" name offset window;
          (* unpack the same window into a fresh sink: exactly those
             bytes of the elements change *)
          if n > 0 then begin
            let sink = S.make_sink ~count in
            let uop = Mpicd.Custom.start S.custom_dt sink ~count in
            Mpicd.Custom.unpack uop ~offset ~src:(Buf.sub dst ~pos:0 ~len:n);
            let stream = reference_stream m ~skip:region sink ~count in
            let expect = Buf.create (Buf.length want) in
            Buf.blit ~src:want ~src_pos:offset ~dst:expect ~dst_pos:offset ~len:n;
            if not (Buf.equal stream expect) then
              Alcotest.failf "%s unpack (%d, %d): wrong bytes" name offset window
          end
        done
      done)
    struct_regions

(* The manual packers write the whole-struct stream of the reference
   loop, and unpack it back. *)
let test_struct_manual_bytes () =
  List.iter
    (fun (name, ((module S : B.STRUCT) as m), _) ->
      List.iter
        (fun count ->
          let src = S.generate ~count in
          let want = reference_stream m ~skip:None src ~count in
          check_int (name ^ " packed size") (Buf.length want)
            (count * S.packed_elem_size);
          let packed = Buf.create (Buf.length want) in
          S.manual_pack src ~count ~dst:packed;
          Alcotest.(check bool) (name ^ " manual_pack bytes") true
            (Buf.equal want packed);
          let sink = S.make_sink ~count in
          S.manual_unpack ~src:packed sink ~count;
          Alcotest.(check bool) (name ^ " manual_unpack bytes") true
            (Buf.equal want (reference_stream m ~skip:None sink ~count)))
        [ 1; 2; 7 ])
    struct_regions

(* --- allocation guards ---

   Minor-heap words are a deterministic count for a fixed binary and
   input, unlike time.  [f] is warmed up once, then one more call must
   allocate exactly what an empty call does. *)
let minor_words_per_call f =
  f ();
  let empty () = ignore (Sys.opaque_identity 0) in
  let measure g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  int_of_float (measure f -. measure empty)

let test_struct_simple_alloc_free () =
  let module S = B.Struct_simple in
  let count = 10_000 in
  let src = S.generate ~count and sink = S.make_sink ~count in
  let psize = count * S.packed_elem_size in
  let packed = Buf.create psize in
  let plan = Plan.build S.derived in
  let cursor = Some (Plan.cursor plan) in
  let zero name f =
    check_int (name ^ ": minor words per call") 0 (minor_words_per_call f)
  in
  zero "Plan.pack" (fun () -> ignore (Plan.pack plan ~count ~src ~dst:packed));
  zero "Plan.unpack" (fun () -> Plan.unpack plan ~count ~src:packed ~dst:sink);
  zero "Plan.pack_range" (fun () ->
      ignore (Plan.pack_range plan ~count ~src ~packed_off:7 ~dst:packed));
  zero "Plan.pack_range (cursor)" (fun () ->
      ignore (Plan.pack_range ?cursor plan ~count ~src ~packed_off:0 ~dst:packed));
  zero "Struct_simple.manual_pack" (fun () -> S.manual_pack src ~count ~dst:packed);
  zero "Struct_simple.manual_unpack" (fun () -> S.manual_unpack ~src:packed sink ~count)

let test_count_for_packed_bytes () =
  check_int "struct-vec at 32K" 3 (B.Struct_vec.count_for_packed_bytes (1 lsl 15));
  check_int "at least 1" 1 (B.Struct_vec.count_for_packed_bytes 10)

(* --- harness --- *)

module H = Mpicd_harness.Harness
module Report = Mpicd_harness.Report

let bytes_impl n () =
  let src = Buf.create n and dst = Buf.create n in
  {
    H.send = (fun comm ~dst:d ~tag -> Mpi.send comm ~dst:d ~tag (Mpi.Bytes src));
    H.recv =
      (fun comm ~source ~tag ->
        ignore (Mpi.recv comm ~source ~tag (Mpi.Bytes dst)));
  }

let test_harness_pingpong () =
  let r = H.pingpong ~bytes:4096 (bytes_impl 4096) in
  Alcotest.(check bool) "latency positive" true (r.latency_us > 0.);
  Alcotest.(check bool) "bandwidth positive" true (r.bandwidth_mib_s > 0.);
  check_int "bytes recorded" 4096 r.bytes

let test_harness_deterministic () =
  let a = H.pingpong ~bytes:1024 (bytes_impl 1024) in
  let b = H.pingpong ~bytes:1024 (bytes_impl 1024) in
  Alcotest.(check (float 0.)) "same latency" a.latency_us b.latency_us

let test_harness_monotone () =
  let small = H.pingpong ~bytes:64 (bytes_impl 64) in
  let big = H.pingpong ~bytes:(1 lsl 20) (bytes_impl (1 lsl 20)) in
  Alcotest.(check bool) "bigger is slower" true
    (big.latency_us > small.latency_us)

let test_report_render () =
  let s1 = { Report.label = "custom"; points = [ (64, 1.5); (128, 2.0) ] } in
  let s2 = { Report.label = "packed"; points = [ (64, 1.7) ] } in
  let out = Report.render ~title:"Fig" ~xlabel:"size" [ s1; s2 ] in
  let contains needle =
    let nl = String.length needle and hl = String.length out in
    let rec go i = i + nl <= hl && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has title" true (contains "=== Fig ===");
  Alcotest.(check bool) "has labels" true (contains "custom" && contains "packed");
  Alcotest.(check bool) "missing point dashed" true (contains "-")

let test_csv_roundtrip () =
  let s1 = { Report.label = "a"; points = [ (64, 1.5); (128, 2.25) ] } in
  let s2 = { Report.label = "b"; points = [ (128, 3.5) ] } in
  let path = Filename.temp_file "mpicd" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Report.to_csv ~path ~xlabel:"size" [ s1; s2 ];
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      match List.rev !lines with
      | [ header; r1; r2 ] ->
          Alcotest.(check string) "header" "size,a,b" header;
          Alcotest.(check bool) "row 64" true
            (String.length r1 > 0 && String.sub r1 0 3 = "64,");
          Alcotest.(check bool) "row 128 has both" true
            (String.split_on_char ',' r2 |> List.length = 3)
      | _ -> Alcotest.fail "expected 3 lines")

let test_human_bytes () =
  Alcotest.(check string) "1K" "1K" (Report.human_bytes 1024);
  Alcotest.(check string) "1M" "1M" (Report.human_bytes (1 lsl 20));
  Alcotest.(check string) "odd" "3000" (Report.human_bytes 3000);
  Alcotest.(check string) "64" "64" (Report.human_bytes 64)

let suite =
  let tc = Alcotest.test_case in
  ( "bench_types",
    [
      tc "double-vec shapes" `Quick test_dv_generate_shapes;
      tc "double-vec pattern bytes" `Quick test_dv_generate_bytes;
      tc "double-vec views disjoint" `Quick test_dv_views_disjoint;
      tc "double-vec clear zeroes only subvectors" `Quick test_dv_clear;
      tc "double-vec manual roundtrip" `Quick test_dv_manual_roundtrip;
      tc "double-vec manual shape mismatch" `Quick test_dv_manual_shape_mismatch;
      tc "double-vec manual packers copy runs" `Quick test_dv_manual_runs;
      tc "double-vec custom over MPI" `Quick test_dv_custom_over_mpi;
      tc "double-vec custom zero copy" `Quick test_dv_custom_zero_copy;
      tc "double-vec header mismatch raises 86" `Quick test_dv_header_mismatch;
      tc "double-vec header windows split lengths" `Quick test_dv_header_windows;
      tc "double-vec shape mismatch over MPI" `Quick test_dv_shape_mismatch_over_mpi;
      tc "struct sizes match paper" `Quick test_struct_sizes;
      tc "struct manual roundtrips" `Quick test_struct_manual_roundtrip;
      tc "struct custom over MPI" `Quick test_struct_custom_over_mpi;
      tc "struct derived over MPI" `Quick test_struct_derived_over_mpi;
      tc "methods agree on content" `Quick test_methods_agree_on_wire_content;
      tc "no-gap custom needs no packing" `Quick test_no_gap_custom_needs_no_packing;
      tc "count_for_packed_bytes" `Quick test_count_for_packed_bytes;
      tc "struct custom windows = reference loop" `Quick test_struct_custom_windows;
      tc "struct manual packers = reference loop" `Quick test_struct_manual_bytes;
      tc "struct-simple plan and manual packs allocate nothing" `Quick
        test_struct_simple_alloc_free;
      tc "harness pingpong" `Quick test_harness_pingpong;
      tc "harness deterministic" `Quick test_harness_deterministic;
      tc "harness monotone" `Quick test_harness_monotone;
      tc "report render" `Quick test_report_render;
      tc "csv roundtrip" `Quick test_csv_roundtrip;
      tc "human bytes" `Quick test_human_bytes;
    ] )
