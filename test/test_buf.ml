(* Unit and property tests for Mpicd_buf.Buf. *)

module Buf = Mpicd_buf.Buf

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_create_zeroed () =
  let b = Buf.create 17 in
  check_int "length" 17 (Buf.length b);
  for i = 0 to 16 do
    check_int "zero" 0 (Buf.get_u8 b i)
  done

let test_create_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Buf.create: negative length")
    (fun () -> ignore (Buf.create (-1)))

let test_set_get () =
  let b = Buf.create 8 in
  Buf.set b 3 'x';
  Alcotest.(check char) "get" 'x' (Buf.get b 3);
  Buf.set_u8 b 4 0x1ff;
  check_int "u8 masked" 0xff (Buf.get_u8 b 4)

let test_bounds () =
  let b = Buf.create 4 in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Buf.get b 4);
  expect_invalid (fun () -> Buf.get b (-1));
  expect_invalid (fun () -> Buf.get_i32 b 1);
  expect_invalid (fun () -> Buf.set_i64 b 0 1L);
  expect_invalid (fun () -> Buf.sub b ~pos:2 ~len:3);
  expect_invalid (fun () -> Buf.sub b ~pos:(-1) ~len:2)

let test_i32_roundtrip () =
  let b = Buf.create 16 in
  let values = [ 0l; 1l; -1l; Int32.max_int; Int32.min_int; 0x12345678l ] in
  List.iter
    (fun v ->
      Buf.set_i32 b 5 v;
      Alcotest.(check int32) "i32" v (Buf.get_i32 b 5))
    values

let test_i32_little_endian () =
  let b = Buf.create 4 in
  Buf.set_i32 b 0 0x04030201l;
  check_int "byte0" 1 (Buf.get_u8 b 0);
  check_int "byte1" 2 (Buf.get_u8 b 1);
  check_int "byte2" 3 (Buf.get_u8 b 2);
  check_int "byte3" 4 (Buf.get_u8 b 3)

let test_i64_roundtrip () =
  let b = Buf.create 16 in
  let values =
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0x0123456789ABCDEFL ]
  in
  List.iter
    (fun v ->
      Buf.set_i64 b 7 v;
      Alcotest.(check int64) "i64" v (Buf.get_i64 b 7))
    values

let test_f64_roundtrip () =
  let b = Buf.create 8 in
  let values = [ 0.; 1.5; -3.25; Float.max_float; Float.min_float; infinity ] in
  List.iter
    (fun v ->
      Buf.set_f64 b 0 v;
      Alcotest.(check (float 0.)) "f64" v (Buf.get_f64 b 0))
    values;
  Buf.set_f64 b 0 nan;
  Alcotest.(check bool) "nan" true (Float.is_nan (Buf.get_f64 b 0))

let test_f32_roundtrip () =
  let b = Buf.create 4 in
  List.iter
    (fun v ->
      Buf.set_f32 b 0 v;
      Alcotest.(check (float 0.)) "f32" v (Buf.get_f32 b 0))
    [ 0.; 1.5; -2.25; 1024.0 ]

let test_sub_aliases () =
  let b = Buf.create 10 in
  let s = Buf.sub b ~pos:2 ~len:4 in
  Buf.set s 0 'a';
  Alcotest.(check char) "aliased write" 'a' (Buf.get b 2);
  check_int "sub length" 4 (Buf.length s);
  Alcotest.(check bool) "overlaps" true (Buf.overlaps b s);
  Alcotest.(check bool) "not same memory" false (Buf.same_memory b s);
  Alcotest.(check bool) "same memory reflexive" true (Buf.same_memory s s)

let test_blit () =
  let src = Buf.of_string "hello world" in
  let dst = Buf.create 11 in
  Buf.blit ~src ~src_pos:0 ~dst ~dst_pos:0 ~len:11;
  check_str "full blit" "hello world" (Buf.to_string dst);
  Buf.blit ~src ~src_pos:6 ~dst ~dst_pos:0 ~len:5;
  check_str "partial blit" "world world" (Buf.to_string dst)

let test_blit_overlapping () =
  let b = Buf.of_string "abcdef" in
  Buf.blit ~src:b ~src_pos:0 ~dst:b ~dst_pos:2 ~len:4;
  check_str "memmove forward" "ababcd" (Buf.to_string b);
  let b2 = Buf.of_string "abcdef" in
  Buf.blit ~src:b2 ~src_pos:2 ~dst:b2 ~dst_pos:0 ~len:4;
  check_str "memmove backward" "cdefef" (Buf.to_string b2)

let test_fill_copy_equal () =
  let a = Buf.create 5 in
  Buf.fill a 'z';
  check_str "fill" "zzzzz" (Buf.to_string a);
  let b = Buf.copy a in
  Alcotest.(check bool) "equal" true (Buf.equal a b);
  Buf.set b 0 'y';
  Alcotest.(check bool) "not equal after write" false (Buf.equal a b);
  Alcotest.(check bool) "copy is fresh memory" false (Buf.overlaps a b)

let test_equal_length_mismatch () =
  let a = Buf.of_string "abc" and b = Buf.of_string "abcd" in
  Alcotest.(check bool) "different lengths" false (Buf.equal a b)

let test_concat () =
  let parts = [ Buf.of_string "ab"; Buf.create 0; Buf.of_string "cde" ] in
  check_str "concat" "abcde" (Buf.to_string (Buf.concat parts));
  check_int "concat empty" 0 (Buf.length (Buf.concat []))

let test_string_roundtrip () =
  let s = "The quick brown fox \x00\x01\xff" in
  check_str "roundtrip" s (Buf.to_string (Buf.of_string s))

let test_blit_from_string () =
  let dst = Buf.create 6 in
  Buf.blit_from_string "xxhellozz" ~src_pos:2 ~dst ~dst_pos:1 ~len:5;
  check_str "from string" "\000hello" (Buf.to_string dst)

let test_blit_to_bytes () =
  let src = Buf.of_string "abcdef" in
  let dst = Bytes.make 4 '.' in
  Buf.blit_to_bytes ~src ~src_pos:1 ~dst ~dst_pos:1 ~len:3;
  check_str "to bytes" ".bcd" (Bytes.to_string dst)

let test_hexdump () =
  let b = Buf.of_string "AB" in
  let dump = Buf.hexdump b in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "hex bytes shown" true (contains dump "41 42");
  Alcotest.(check bool) "ascii shown" true (contains dump "AB");
  let big = Buf.create 1000 in
  Alcotest.(check bool) "truncation note" true
    (contains (Buf.hexdump ~max_bytes:32 big) "more bytes")

(* Property tests *)

let prop_blit_roundtrip =
  QCheck.Test.make ~name:"buf: string->buf->string roundtrip" ~count:200
    QCheck.(string_of_size Gen.(0 -- 512))
    (fun s -> Buf.to_string (Buf.of_string s) = s)

let prop_sub_consistent =
  QCheck.Test.make ~name:"buf: sub matches String.sub" ~count:200
    QCheck.(
      pair (string_of_size Gen.(1 -- 256)) (pair small_nat small_nat))
    (fun (s, (a, b)) ->
      let n = String.length s in
      let pos = a mod n in
      let len = b mod (n - pos + 1) in
      Buf.to_string (Buf.sub (Buf.of_string s) ~pos ~len) = String.sub s pos len)

let prop_i64_any =
  QCheck.Test.make ~name:"buf: i64 roundtrip" ~count:500 QCheck.int64
    (fun v ->
      let b = Buf.create 8 in
      Buf.set_i64 b 0 v;
      Buf.get_i64 b 0 = v)

(* Word-sized scalar access against a byte-wise little-endian
   reference, on [Buf.sub] views that start at odd offsets of their
   base so the accesses are unaligned. *)

(* (odd base offset, view length, offset inside the view) such that a
   [width]-byte scalar fits at that offset *)
let view_gen width =
  QCheck.Gen.(
    map3
      (fun k slack pos -> ((2 * k) + 1, width + slack, pos mod (slack + 1)))
      (0 -- 7) (0 -- 9) nat)

let view (base_off, len, _) = Buf.sub (Buf.create 32) ~pos:base_off ~len

(* the reference layout: byte [k] holds bits [8k .. 8k+7] *)
let le_bytes width bits =
  List.init width (fun k ->
      Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * k)) 0xffL))

let prop_le_layout ~width ~name ~set ~get ~bits gen =
  QCheck.Test.make
    ~name:(Printf.sprintf "buf: %s little-endian on odd-offset views" name)
    ~count:300
    (QCheck.make QCheck.Gen.(pair (view_gen width) gen))
    (fun (((_, _, pos) as v), x) ->
      let want = le_bytes width (bits x) in
      let b = view v in
      set b pos x;
      let stored = List.init width (fun k -> Buf.get_u8 b (pos + k)) = want in
      (* and the reverse: bytes laid down one at a time read back *)
      let b' = view v in
      List.iteri (fun k byte -> Buf.set_u8 b' (pos + k) byte) want;
      stored && bits (get b pos) = bits x && bits (get b' pos) = bits x)

let bits32 v = Int64.logand (Int64.of_int32 v) 0xffffffffL

let prop_i32_layout =
  prop_le_layout ~width:4 ~name:"i32" ~set:Buf.set_i32 ~get:Buf.get_i32
    ~bits:bits32 QCheck.Gen.int32

let prop_i64_layout =
  prop_le_layout ~width:8 ~name:"i64" ~set:Buf.set_i64 ~get:Buf.get_i64
    ~bits:Fun.id QCheck.Gen.int64

(* any 64-bit pattern, NaN payloads included, round-trips bit-exactly *)
let prop_f64_layout =
  prop_le_layout ~width:8 ~name:"f64" ~set:Buf.set_f64 ~get:Buf.get_f64
    ~bits:Int64.bits_of_float
    QCheck.Gen.(map Int64.float_of_bits int64)

(* f32 values come from 32-bit patterns, so they are exactly
   representable; NaNs are left out because widening a signalling NaN
   to a double may quiet it *)
let prop_f32_layout =
  prop_le_layout ~width:4 ~name:"f32" ~set:Buf.set_f32 ~get:Buf.get_f32
    ~bits:(fun v -> bits32 (Int32.bits_of_float v))
    QCheck.Gen.(
      map
        (fun b ->
          let f = Int32.float_of_bits b in
          if Float.is_nan f then 0. else f)
        int32)

(* the raw 32-bit word, signalling-NaN patterns included *)
let prop_u32_layout =
  prop_le_layout ~width:4 ~name:"u32" ~set:Buf.set_u32 ~get:Buf.get_u32
    ~bits:Int64.of_int
    QCheck.Gen.(map (fun b -> Int32.to_int b land 0xffff_ffff) int32)

(* Every offset at which a scalar does not fit raises, for all ten
   accessors: negative, just past the view's end, and near [max_int]
   where [offset + width] overflows. *)
let prop_out_of_range =
  QCheck.Test.make ~name:"buf: out-of-range scalar offsets raise" ~count:300
    (QCheck.make
       QCheck.Gen.(
         quad (oneofl [ 4; 8 ]) (0 -- 12)
           (oneofl [ `Negative; `Past_end; `Near_max_int; `Min_int ])
           (0 -- 8)))
    (fun (width, len, where, d) ->
      let b = Buf.sub (Buf.create 16) ~pos:1 ~len in
      let off =
        match where with
        | `Negative -> -1 - d
        | `Past_end -> len - width + 1 + d
        | `Near_max_int -> max_int - d
        | `Min_int -> min_int
      in
      let raises f =
        match f () with exception Invalid_argument _ -> true | () -> false
      in
      let accessors =
        if width = 4 then
          [ (fun () -> ignore (Buf.get_i32 b off));
            (fun () -> Buf.set_i32 b off 1l);
            (fun () -> ignore (Buf.get_f32 b off));
            (fun () -> Buf.set_f32 b off 1.);
            (fun () -> ignore (Buf.get_u32 b off));
            (fun () -> Buf.set_u32 b off 1) ]
        else
          [ (fun () -> ignore (Buf.get_i64 b off));
            (fun () -> Buf.set_i64 b off 1L);
            (fun () -> ignore (Buf.get_f64 b off));
            (fun () -> Buf.set_f64 b off 1.) ]
      in
      List.for_all raises accessors)

(* Bulk copies against byte-wise references.  Buffers hold a
   position-dependent pattern that differs per [salt], and every view
   starts at byte 1 of its base, so word accesses are unaligned. *)

let patterned n salt =
  let b = Buf.create n in
  for i = 0 to n - 1 do
    Buf.set_u8 b i ((i * 7) + salt)
  done;
  b

let snapshot b = String.init (Buf.length b) (Buf.get b)

(* [Buf.blit] of [len] bytes from offset [so] of a view of [src_base]
   to offset [d_o] of a view of [dst_base] equals [Bytes.blit] on
   snapshots (memmove semantics when the bases are the same), and
   leaves a distinct source unchanged. *)
let blit_matches_memmove ~src_base ~dst_base ~so ~d_o ~len =
  let src_before = snapshot src_base in
  let want = Bytes.of_string (snapshot dst_base) in
  Bytes.blit_string src_before (1 + so) want (1 + d_o) len;
  let view b = Buf.sub b ~pos:1 ~len:(Buf.length b - 1) in
  Buf.blit ~src:(view src_base) ~src_pos:so ~dst:(view dst_base) ~dst_pos:d_o ~len;
  snapshot dst_base = Bytes.to_string want
  && (src_base == dst_base || snapshot src_base = src_before)

let test_blit_every_length () =
  for len = 0 to 2100 do
    let fresh salt = patterned (len + 24) salt in
    if not (blit_matches_memmove ~src_base:(fresh 1) ~dst_base:(fresh 2) ~so:3 ~d_o:5 ~len)
    then Alcotest.failf "distinct buffers, len %d" len;
    (* one base: destination above the source, then below it *)
    List.iter
      (fun (so, d_o) ->
        let b = fresh 3 in
        if not (blit_matches_memmove ~src_base:b ~dst_base:b ~so ~d_o ~len) then
          Alcotest.failf "overlapping views so=%d d_o=%d, len %d" so d_o len)
      [ (3, 4); (3, 14); (4, 3); (14, 3) ]
  done

let prop_blit_memmove =
  QCheck.Test.make ~name:"buf: blit = memmove on odd offsets and overlapping views"
    ~count:300
    (QCheck.make
       QCheck.Gen.(quad (0 -- 2100) (0 -- 15) (0 -- 15) bool))
    (fun (len, a, b, same) ->
      let so = (2 * a) + 1 and d_o = (2 * b) + 1 in
      let src_base = patterned (len + 34) 5 in
      let dst_base = if same then src_base else patterned (len + 34) 6 in
      blit_matches_memmove ~src_base ~dst_base ~so ~d_o ~len)

let prop_string_copies =
  QCheck.Test.make ~name:"buf: string copies on odd lengths and sub views"
    ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 300)) (pair small_nat small_nat))
    (fun (s, (a, b)) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod n in
      let len = b mod (n - pos + 1) in
      let want = String.sub s pos len in
      let v = Buf.sub (Buf.of_string s) ~pos ~len in
      let into = Buf.sub (Buf.create (len + 3)) ~pos:3 ~len in
      Buf.blit_from_string s ~src_pos:pos ~dst:into ~dst_pos:0 ~len;
      let out = Bytes.make (len + 1) '.' in
      Buf.blit_to_bytes ~src:v ~src_pos:0 ~dst:out ~dst_pos:1 ~len;
      Buf.to_string v = want
      && snapshot v = want
      && Buf.to_string (Buf.of_string want) = want
      && snapshot into = want
      && Bytes.sub_string out 1 len = want)

(* Short copies end in at most one 4-, one 2- and one 1-byte access;
   every length 0..64 at every source and destination alignment mod 8,
   against a byte-loop memmove.  One base holds both ranges, so they
   overlap in both directions as well as not at all. *)
let byte_memmove b ~so ~d_o ~len =
  let get i = Bigarray.Array1.get b i and set i c = Bigarray.Array1.set b i c in
  if d_o <= so then for i = 0 to len - 1 do set (d_o + i) (get (so + i)) done
  else for i = len - 1 downto 0 do set (d_o + i) (get (so + i)) done

let prop_short_copies =
  QCheck.Test.make ~name:"buf: short copies = byte loop at every alignment"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(pair (0 -- 64) (quad (0 -- 7) (0 -- 7) (0 -- 9) (0 -- 9))))
    (fun (len, (a, b, sx, dx)) ->
      let so = a + (8 * sx) and d_o = b + (8 * dx) in
      let n = 72 + 80 in
      let got = patterned n 9 and want = patterned n 9 in
      Buf.blit ~src:got ~src_pos:so ~dst:got ~dst_pos:d_o ~len;
      byte_memmove want.Buf.base ~so ~d_o ~len;
      (* the string and bytes twins between distinct buffers *)
      let s = snapshot (patterned n 4) in
      let into = patterned n 5 and into_want = patterned n 5 in
      Buf.blit_from_string s ~src_pos:so ~dst:into ~dst_pos:d_o ~len;
      String.iteri
        (fun i c -> if i >= so && i < so + len then Buf.set into_want (d_o + i - so) c)
        s;
      let out = Bytes.make n '.' and out_want = Bytes.make n '.' in
      Buf.blit_to_bytes ~src:into ~src_pos:so ~dst:out ~dst_pos:d_o ~len;
      for i = 0 to len - 1 do
        Bytes.set out_want (d_o + i) (Buf.get into_want (so + i))
      done;
      Buf.equal got want && Buf.equal into into_want && Bytes.equal out out_want)

(* Negative lengths and offsets whose sum with the length overflows
   raise, as [Bytes.blit] does, instead of copying nothing or reading
   out of bounds. *)
let test_bad_ranges_raise () =
  let b = Buf.create 16 and bytes = Bytes.create 16 and s = String.make 16 'x' in
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  List.iter
    (fun (what, pos, len) ->
      let name = Printf.sprintf "%s (pos %d, len %d)" what pos len in
      raises ("blit src " ^ name) (fun () ->
          Buf.blit ~src:b ~src_pos:pos ~dst:b ~dst_pos:0 ~len);
      raises ("blit dst " ^ name) (fun () ->
          Buf.blit ~src:b ~src_pos:0 ~dst:b ~dst_pos:pos ~len);
      raises ("blit_from_string src " ^ name) (fun () ->
          Buf.blit_from_string s ~src_pos:pos ~dst:b ~dst_pos:0 ~len);
      raises ("blit_from_string dst " ^ name) (fun () ->
          Buf.blit_from_string s ~src_pos:0 ~dst:b ~dst_pos:pos ~len);
      raises ("blit_to_bytes src " ^ name) (fun () ->
          Buf.blit_to_bytes ~src:b ~src_pos:pos ~dst:bytes ~dst_pos:0 ~len);
      raises ("blit_to_bytes dst " ^ name) (fun () ->
          Buf.blit_to_bytes ~src:b ~src_pos:0 ~dst:bytes ~dst_pos:pos ~len);
      raises ("sub " ^ name) (fun () -> ignore (Buf.sub b ~pos ~len)))
    [
      ("negative length", 0, -1);
      ("negative length", 4, -3);
      ("near max_int", max_int, 2);
      ("near max_int", max_int - 1, 4);
      ("length max_int", 1, max_int);
    ]

(* [Buf.equal] compares a word at a time; these pin it to the byte-wise
   definition on unaligned views, overlapping views of one base, every
   word/tail split of short lengths, and lengths that differ. *)

(* byte [i] depends on [i mod period] only, so two views of the same
   contents are equal exactly when their offsets agree modulo [period] *)
let periodic n period =
  let b = Buf.create n in
  for i = 0 to n - 1 do
    Buf.set_u8 b i (((i mod period) * 37) + 11)
  done;
  b

let prop_equal_bytewise =
  QCheck.Test.make ~name:"buf: equal = byte-wise equality on odd-offset views"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair
           (quad (0 -- 2100) (0 -- 7) (0 -- 7) (oneofl [ 1; 2; 8; 256 ]))
           (pair bool (opt nat))))
    (fun ((len, a, b, period), (same, flip)) ->
      let base_a = periodic (len + 16) period in
      let base_b = if same then base_a else periodic (len + 16) period in
      let va = Buf.sub base_a ~pos:((2 * a) + 1) ~len
      and vb = Buf.sub base_b ~pos:((2 * b) + 1) ~len in
      (match flip with
      | Some k when len > 0 ->
          let k = k mod len in
          Buf.set_u8 vb k (Buf.get_u8 vb k lxor 0x40)
      | _ -> ());
      Buf.equal va vb = (snapshot va = snapshot vb))

let test_equal_single_byte_flips () =
  let lengths = List.init 25 Fun.id @ List.init 17 (fun d -> 1016 + d) in
  List.iter
    (fun len ->
      let a = Buf.sub (patterned (len + 1) 9) ~pos:1 ~len
      and b = Buf.sub (patterned (len + 3) 9) ~pos:3 ~len in
      (* same contents at another offset of another base *)
      Buf.blit ~src:a ~src_pos:0 ~dst:b ~dst_pos:0 ~len;
      if not (Buf.equal a b) then Alcotest.failf "len %d: copies differ" len;
      for k = 0 to len - 1 do
        List.iter
          (fun mask ->
            let old = Buf.get_u8 b k in
            Buf.set_u8 b k (old lxor mask);
            if Buf.equal a b || Buf.equal b a then
              Alcotest.failf "len %d: flip 0x%02x at byte %d not seen" len mask k;
            Buf.set_u8 b k old)
          [ 0x01; 0x80; 0xff ]
      done;
      (* a view one byte longer with the same prefix *)
      let longer = Buf.sub (patterned (len + 2) 9) ~pos:1 ~len:(len + 1) in
      if Buf.equal a longer || Buf.equal longer a then
        Alcotest.failf "len %d vs %d: different lengths compared equal" len
          (len + 1))
    lengths

let prop_equal_lengths_differ =
  QCheck.Test.make ~name:"buf: equal is false when lengths differ" ~count:200
    QCheck.(pair (int_bound 1100) (int_range 1 40))
    (fun (n, d) ->
      let base = periodic (n + d + 1) 1 in
      let short = Buf.sub base ~pos:1 ~len:n
      and long = Buf.sub base ~pos:0 ~len:(n + d) in
      (not (Buf.equal short long)) && not (Buf.equal long short))

let prop_concat_length =
  QCheck.Test.make ~name:"buf: concat length is sum" ~count:100
    QCheck.(list (string_of_size Gen.(0 -- 64)))
    (fun parts ->
      let bufs = List.map Buf.of_string parts in
      Buf.length (Buf.concat bufs)
      = List.fold_left (fun acc s -> acc + String.length s) 0 parts)

(* Float-array transfers: [blit_from_floats]/[blit_to_floats] must
   store and load exactly what the per-element accessors do, bit for
   bit (NaN payloads, signalling NaNs, -0.0), on views that start at odd
   offsets, and leave everything outside the range alone. *)

let float_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map Int64.float_of_bits int64);
        ( 1,
          oneofl
            [
              -0.;
              0.;
              Float.nan;
              Float.infinity;
              Float.neg_infinity;
              Int64.float_of_bits 0x7ff0_0000_0000_0001L (* signalling *);
              Int64.float_of_bits 0xfff8_dead_beef_0001L (* negative payload *);
            ] );
      ])

(* (floats, array start, count, odd view offset, byte position in view) *)
let float_blit_gen =
  QCheck.Gen.(
    map3
      (fun fs (a, b) (k, slack, p) ->
        let n = Array.length fs in
        let pos = a mod (n + 1) in
        let len = b mod (n - pos + 1) in
        (fs, pos, len, (2 * k) + 1, p mod (slack + 1), slack))
      (array_size (0 -- 24) float_gen)
      (pair nat nat)
      (triple (0 -- 7) (0 -- 11) nat))

let bits_array fs = Array.map Int64.bits_of_float fs

let prop_blit_from_floats =
  QCheck.Test.make
    ~name:"buf: blit_from_floats = per-element set_f64 on odd-offset views"
    ~count:300 (QCheck.make float_blit_gen)
    (fun (fs, pos, len, base_off, dpos, slack) ->
      let vlen = dpos + (8 * len) + slack in
      let fresh () =
        let v = Buf.sub (Buf.create (vlen + 16)) ~pos:base_off ~len:vlen in
        Buf.fill v '\xa5';
        v
      in
      let got = fresh () and want = fresh () in
      Buf.blit_from_floats fs ~src_pos:pos ~dst:got ~dst_pos:dpos ~len;
      for i = 0 to len - 1 do
        Buf.set_f64 want (dpos + (8 * i)) fs.(pos + i)
      done;
      Buf.equal got want)

let prop_blit_to_floats =
  QCheck.Test.make
    ~name:"buf: blit_to_floats = per-element get_f64 on odd-offset views"
    ~count:300 (QCheck.make float_blit_gen)
    (fun (fs, pos, len, base_off, spos, slack) ->
      let vlen = spos + (8 * len) + slack in
      let src = Buf.sub (Buf.create (vlen + 16)) ~pos:base_off ~len:vlen in
      (* source words are the generated floats, stored one at a time *)
      for i = 0 to len - 1 do
        Buf.set_f64 src (spos + (8 * i)) fs.(i)
      done;
      let sentinel = Int64.float_of_bits 0x7ff4_0000_0000_0042L in
      let got = Array.make (Array.length fs) sentinel in
      let want = Array.copy got in
      Buf.blit_to_floats ~src ~src_pos:spos ~dst:got ~dst_pos:pos ~len;
      for i = 0 to len - 1 do
        want.(pos + i) <- Buf.get_f64 src (spos + (8 * i))
      done;
      bits_array got = bits_array want)

let test_float_blit_bad_ranges () =
  let b = Buf.sub (Buf.create 40) ~pos:3 ~len:32 in
  let fs = Array.make 4 1.5 in
  let from ~src_pos ~dst_pos ~len () =
    Buf.blit_from_floats fs ~src_pos ~dst:b ~dst_pos ~len
  in
  let into ~src_pos ~dst_pos ~len () =
    Buf.blit_to_floats ~src:b ~src_pos ~dst:fs ~dst_pos ~len
  in
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s: no exception" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (name, f) -> raises name f)
    [
      ("from: negative len", from ~src_pos:0 ~dst_pos:0 ~len:(-1));
      ("from: negative src_pos", from ~src_pos:(-1) ~dst_pos:0 ~len:1);
      ("from: past array end", from ~src_pos:2 ~dst_pos:0 ~len:3);
      ("from: negative dst_pos", from ~src_pos:0 ~dst_pos:(-1) ~len:1);
      ("from: past view end", from ~src_pos:0 ~dst_pos:1 ~len:4);
      ("from: huge len", from ~src_pos:0 ~dst_pos:0 ~len:max_int);
      ("to: negative len", into ~src_pos:0 ~dst_pos:0 ~len:(-1));
      ("to: negative dst_pos", into ~src_pos:0 ~dst_pos:(-1) ~len:1);
      ("to: past array end", into ~src_pos:0 ~dst_pos:3 ~len:2);
      ("to: negative src_pos", into ~src_pos:(-1) ~dst_pos:0 ~len:1);
      ("to: past view end", into ~src_pos:25 ~dst_pos:0 ~len:1);
      ("to: huge len", into ~src_pos:0 ~dst_pos:0 ~len:max_int);
    ];
  (* a rejected call writes nothing *)
  check_str "view untouched" (String.make 32 '\000') (Buf.to_string b);
  Alcotest.(check bool) "array untouched" true (Array.for_all (( = ) 1.5) fs);
  (* the empty range fits anywhere in bounds, including the ends *)
  Buf.blit_from_floats fs ~src_pos:4 ~dst:b ~dst_pos:32 ~len:0;
  Buf.blit_to_floats ~src:b ~src_pos:32 ~dst:fs ~dst_pos:4 ~len:0

(* --- the buffer pool --- *)

module Pool = Buf.Pool

let test_pool_take_zeroed () =
  let p = Pool.create () in
  let a = Pool.take p 100 in
  Buf.fill a '\xff';
  Pool.give p a;
  let b = Pool.take p 100 in
  Alcotest.(check bool) "recycled" true (Buf.same_memory a b);
  check_str "zeroed" (String.make 100 '\000') (Buf.to_string b);
  check_int "hits" 1 (Pool.hits p);
  check_int "misses" 1 (Pool.misses p)

(* Only a whole buffer the pool lent comes back, and only once: no two
   buffers in use ever share storage. *)
let test_pool_never_aliases () =
  let p = Pool.create () in
  let held = Pool.take p 64 in
  Pool.give p (Buf.sub held ~pos:0 ~len:32);
  Pool.give p (Buf.sub held ~pos:8 ~len:56);
  Pool.give p (Buf.sub held ~pos:0 ~len:64);
  let user = Buf.create 64 in
  Pool.give p user;
  let twice = Pool.take p 64 in
  Pool.give p twice;
  Pool.give p twice;
  let in_use =
    held :: user :: [ Pool.take p 64; Pool.take p 64; Pool.take p 32; Pool.take p 56 ]
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j && Buf.overlaps a b then
            Alcotest.failf "buffers %d and %d share storage" i j)
        in_use)
    in_use;
  check_int "only the buffer given back is reused" 1 (Pool.hits p)

let test_pool_bounded () =
  let give_all p bs = List.iter (Pool.give p) bs in
  let p = Pool.create () in
  let mib = 1024 * 1024 in
  give_all p (List.init ((Pool.max_bytes / mib) + 8) (fun _ -> Pool.take p mib));
  check_int "byte bound" Pool.max_bytes (Pool.retained_bytes p);
  let p = Pool.create () in
  give_all p (List.init 100 (fun _ -> Pool.take p 8));
  check_int "per-length bound" (Pool.max_class_buffers * 8) (Pool.retained_bytes p);
  let p = Pool.create () in
  for n = 1 to 2 * Pool.max_classes do
    Pool.give p (Pool.take p n)
  done;
  (* the oldest lengths were forgotten, with their buffers *)
  let newest = List.init Pool.max_classes (fun i -> (2 * Pool.max_classes) - i) in
  check_int "length-count bound" (List.fold_left ( + ) 0 newest)
    (Pool.retained_bytes p);
  Alcotest.(check bool) "under the byte bound" true
    (Pool.retained_bytes p <= Pool.max_bytes)

(* Minor words one warmed-up call of [f] allocates, net of an empty
   call. *)
let minor_words_per_call f =
  f ();
  let empty () = ignore (Sys.opaque_identity 0) in
  let measure g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  int_of_float (measure f -. measure empty)

(* A view fill writes exactly the view, whatever its offset and length
   (word stores, then a byte tail), as a byte loop would. *)
let prop_fill_view =
  QCheck.Test.make ~name:"buf: view fill = byte loop, nothing outside" ~count:300
    QCheck.(triple (int_bound 64) (int_bound 3072) char)
    (fun (off, len, c) ->
      let n = off + len + 16 in
      let got = Buf.create n and want = Bytes.create n in
      for i = 0 to n - 1 do
        Buf.set_u8 got i ((i * 37) + 5);
        Bytes.set want i (Char.chr (((i * 37) + 5) land 0xff))
      done;
      Buf.fill (Buf.sub got ~pos:off ~len) c;
      Bytes.fill want off len c;
      Buf.to_string got = Bytes.to_string want)

(* The byte kernels (memmove, memset and memcmp behind [blit], [fill]
   and [equal]) against byte loops, all on views of one buffer.  The
   blit's ranges overlap in either direction or not at all; the fill
   writes one view and nothing else; the two compared views hold equal
   bytes when their offsets agree modulo the period, and one byte is
   flipped at the end of the second view, just past it, or nowhere.
   Lengths cross the 1 KiB where copies once changed method. *)
let prop_kernels_vs_byte_loops =
  QCheck.Test.make ~name:"buf: blit, fill and equal on one buffer = byte loops"
    ~count:400
    (QCheck.make
       QCheck.Gen.(
         pair
           (quad (0 -- 3072) (0 -- 64) (0 -- 64) (oneofl [ 1; 3; 8; 64 ]))
           (pair char (oneofl [ `None; `Last; `Past ]))))
    (fun ((len, so, d_o, period), (c, flip)) ->
      let n = len + 72 in
      let got = patterned n 9 and want = patterned n 9 in
      Buf.blit ~src:got ~src_pos:so ~dst:got ~dst_pos:d_o ~len;
      byte_memmove want.Buf.base ~so ~d_o ~len;
      let blit_ok = snapshot got = snapshot want in
      let want = Bytes.of_string (snapshot got) in
      Buf.fill (Buf.sub got ~pos:d_o ~len) c;
      for i = d_o to d_o + len - 1 do
        Bytes.set want i c
      done;
      let fill_ok = snapshot got = Bytes.to_string want in
      let base = periodic n period in
      let va = Buf.sub base ~pos:so ~len and vb = Buf.sub base ~pos:d_o ~len in
      let flip_at k = Buf.set_u8 base k (Buf.get_u8 base k lxor 0x20) in
      (match flip with
      | `Last when len > 0 -> flip_at (d_o + len - 1)
      | `Past -> flip_at (d_o + len)
      | _ -> ());
      blit_ok && fill_ok && Buf.equal va vb = (snapshot va = snapshot vb))

let test_fill_view_allocates_nothing () =
  let b = Buf.create 5000 in
  let view = Buf.sub b ~pos:3 ~len:4096 in
  check_int "minor words for a 4 KiB view fill" 0
    (minor_words_per_call (fun () -> Buf.fill view '\x5a'));
  check_str "filled" (String.make 4096 '\x5a') (Buf.to_string view);
  check_int "byte before untouched" 0 (Buf.get_u8 b 2);
  check_int "byte after untouched" 0 (Buf.get_u8 b 4099)

(* Once a class holds a buffer, a take/give pair on it allocates
   nothing: the class lookup returns no option. *)
let test_pool_take_give_allocates_nothing () =
  let p = Pool.create () in
  Pool.give p (Pool.take p 32);
  (* a newer class, so each lookup walks past one *)
  Pool.give p (Pool.take p 64);
  let pairs () =
    for _ = 1 to 1000 do
      Pool.give p (Pool.take p 32)
    done
  in
  check_int "minor words for 1,000 take/give pairs" 0 (minor_words_per_call pairs);
  check_int "every later take hits" 2000 (Pool.hits p);
  check_int "misses" 2 (Pool.misses p)

(* A slot given back is the next take of its class, at any length the
   class holds, and the ledger counts it once.  Live slots lie inside
   their chunk and overlap no other live slot (checked without writing,
   so a slot carved too small fails here rather than corrupting the
   heap). *)
let test_slabs_retake () =
  let s = Buf.Slabs.create () in
  let a = Buf.Slabs.take s 1000 in
  Buf.Slabs.give s a;
  let b = Buf.Slabs.take s 600 in
  Alcotest.(check bool) "same bytes" true (Buf.same_memory b (Buf.sub a ~pos:0 ~len:600));
  Buf.Slabs.give s b;
  check_int "one slot carved" 1 (Buf.Slabs.carved_slots s);
  check_int "one slot free" 1 (Buf.Slabs.free_slots s);
  let live =
    List.map (Buf.Slabs.take s) [ 1; 2; 3; 5; 100; 513; 1000; 1024; 4097; 70_000; 3; 1000 ]
  in
  List.iter
    (fun (x : Buf.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d-byte slot inside its chunk" x.len)
        true
        (x.off >= 0 && x.off + x.len <= Bigarray.Array1.dim x.base))
    live;
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y ->
          if i < j && Buf.overlaps x y then
            Alcotest.failf "live slots %d and %d overlap" i j)
        live)
    live

(* --- region lists --- *)

let iov_base_size = 96

(* Entries [(base, offset, length)] drawn one after another: each
   follows the last in its base, follows it after a gap, starts where
   it ended but in another base, or lands anywhere.  Lengths are 0-24
   bytes; drawing stops at [min_total] bytes and [extra] more entries. *)
let draw_entries st ~bases ~min_total ~extra =
  let acc = ref [] and total = ref 0 and extra = ref extra in
  let prev = ref (Random.State.int st bases, Random.State.int st iov_base_size) in
  while !total < min_total || !extra > 0 do
    if !total >= min_total then decr extra;
    let pb, pend = !prev in
    let len = Random.State.int st 25 in
    let b, off =
      match Random.State.int st 4 with
      | 0 -> (pb, pend)
      | 1 -> (pb, pend + 1 + Random.State.int st 8)
      | 2 -> ((pb + 1 + Random.State.int st (max 1 (bases - 1))) mod bases, pend)
      | _ -> (Random.State.int st bases, Random.State.int st iov_base_size)
    in
    let off =
      if off + len > iov_base_size then Random.State.int st (iov_base_size - len + 1) else off
    in
    acc := (b, off, len) :: !acc;
    total := !total + len;
    prev := (b, off + len)
  done;
  List.rev !acc

(* Base [i] of a side, a view at an odd offset of a longer buffer,
   patterned by [seed] so that bytes of different bases differ. *)
let iov_bases ~n ~seed =
  Array.init n (fun i ->
      let b = Buf.sub (Buf.create (iov_base_size + 3)) ~pos:3 ~len:iov_base_size in
      if seed >= 0 then
        for j = 0 to iov_base_size - 1 do
          Buf.set_u8 b j ((j * 7) + (31 * i) + seed)
        done;
      b)

let iov_views bases entries =
  Array.of_list (List.map (fun (b, off, len) -> Buf.sub bases.(b) ~pos:off ~len) entries)

(* The same entries as each producer lists them: views, a table over
   one base (drawn with one base), or one view in front of the rest. *)
let iov_of_form form bases entries =
  match form with
  | `Views -> Buf.Iov.of_array (iov_views bases entries)
  | `Table ->
      let offs = Array.of_list (List.map (fun (_, o, _) -> o) entries) in
      let lens = Array.of_list (List.map (fun (_, _, l) -> l) entries) in
      Buf.Iov.of_table bases.(0) (Buf.Iov.table ~offs ~lens)
  | `Cons -> (
      match Array.to_list (iov_views bases entries) with
      | [] -> Buf.Iov.empty
      | v :: rest -> Buf.Iov.cons v (Buf.Iov.of_list rest))

let prop_iov_blit_runs =
  QCheck.Test.make ~name:"buf: iov copy by runs = entry-by-entry copy" ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (oneofl [ `Views; `Table; `Cons ]) (pair (oneofl [ `Views; `Table; `Cons ]) int)))
    (fun (sform, (dform, seed)) ->
      let st = Random.State.make [| seed |] in
      let nb form = if form = `Table then 1 else 1 + Random.State.int st 3 in
      let sn = nb sform and dn = nb dform in
      let sent =
        draw_entries st ~bases:sn ~min_total:0 ~extra:(1 + Random.State.int st 12)
      in
      let total = List.fold_left (fun a (_, _, l) -> a + l) 0 sent in
      let recv =
        draw_entries st ~bases:dn ~min_total:total ~extra:(Random.State.int st 3)
      in
      let src_bases = iov_bases ~n:sn ~seed:(Random.State.int st 256) in
      let pristine = Array.map Buf.copy src_bases in
      let src = iov_of_form sform src_bases sent in
      (* the reference: the stream entry by entry, then byte by byte
         into the receive entries, in order *)
      let stream =
        String.concat "" (List.map Buf.to_string (Array.to_list (iov_views src_bases sent)))
      in
      let want = iov_bases ~n:dn ~seed:(-1) in
      let pos = ref 0 in
      Array.iter
        (fun v ->
          for j = 0 to Buf.length v - 1 do
            if !pos < String.length stream then begin
              Buf.set v j stream.[!pos];
              incr pos
            end
          done)
        (iov_views want recv);
      let got = iov_bases ~n:dn ~seed:(-1) in
      Buf.Iov.blit ~src ~dst:(iov_of_form dform got recv);
      Buf.Iov.total src = total
      && Buf.Iov.count src = List.length sent
      && Array.for_all2 Buf.equal got want
      && Array.for_all2 Buf.equal src_bases pristine)

let test_iov_blit_exceeds () =
  let src = Buf.Iov.of_list [ Buf.create 4; Buf.create 5 ] in
  let dst = Buf.Iov.of_list [ Buf.create 4; Buf.create 4 ] in
  Alcotest.check_raises "payload exceeds receive regions"
    (Invalid_argument "Buf.Iov.blit: payload exceeds receive regions") (fun () ->
      Buf.Iov.blit ~src ~dst);
  Alcotest.check_raises "table entry outside its buffer"
    (Invalid_argument "Buf.Iov.of_table: an entry does not fit the buffer") (fun () ->
      ignore (Buf.Iov.of_table (Buf.create 8) (Buf.Iov.table ~offs:[| 4 |] ~lens:[| 5 |])))

let suite =
  let tc = Alcotest.test_case in
  ( "buf",
    [
      tc "create zeroed" `Quick test_create_zeroed;
      tc "create negative" `Quick test_create_negative;
      tc "set/get" `Quick test_set_get;
      tc "bounds checking" `Quick test_bounds;
      tc "i32 roundtrip" `Quick test_i32_roundtrip;
      tc "i32 little-endian layout" `Quick test_i32_little_endian;
      tc "i64 roundtrip" `Quick test_i64_roundtrip;
      tc "f64 roundtrip" `Quick test_f64_roundtrip;
      tc "f32 roundtrip" `Quick test_f32_roundtrip;
      tc "sub aliases storage" `Quick test_sub_aliases;
      tc "blit" `Quick test_blit;
      tc "blit overlapping" `Quick test_blit_overlapping;
      tc "fill/copy/equal" `Quick test_fill_copy_equal;
      tc "equal length mismatch" `Quick test_equal_length_mismatch;
      tc "concat" `Quick test_concat;
      tc "string roundtrip" `Quick test_string_roundtrip;
      tc "blit_from_string" `Quick test_blit_from_string;
      tc "blit_to_bytes" `Quick test_blit_to_bytes;
      tc "hexdump" `Quick test_hexdump;
      tc "blit = memmove for every length 0..2100" `Quick test_blit_every_length;
      tc "bad lengths and offsets raise" `Quick test_bad_ranges_raise;
      tc "equal sees every single-byte flip" `Quick test_equal_single_byte_flips;
      tc "float blits reject bad ranges" `Quick test_float_blit_bad_ranges;
      QCheck_alcotest.to_alcotest prop_blit_roundtrip;
      QCheck_alcotest.to_alcotest prop_sub_consistent;
      QCheck_alcotest.to_alcotest prop_i64_any;
      QCheck_alcotest.to_alcotest prop_concat_length;
      QCheck_alcotest.to_alcotest prop_i32_layout;
      QCheck_alcotest.to_alcotest prop_i64_layout;
      QCheck_alcotest.to_alcotest prop_f32_layout;
      QCheck_alcotest.to_alcotest prop_f64_layout;
      QCheck_alcotest.to_alcotest prop_u32_layout;
      QCheck_alcotest.to_alcotest prop_out_of_range;
      QCheck_alcotest.to_alcotest prop_blit_memmove;
      QCheck_alcotest.to_alcotest prop_string_copies;
      QCheck_alcotest.to_alcotest prop_short_copies;
      QCheck_alcotest.to_alcotest prop_equal_bytewise;
      QCheck_alcotest.to_alcotest prop_equal_lengths_differ;
      QCheck_alcotest.to_alcotest prop_blit_from_floats;
      QCheck_alcotest.to_alcotest prop_blit_to_floats;
      tc "pool: a taken buffer is zeroed" `Quick test_pool_take_zeroed;
      tc "pool: views, strangers and double gives never alias" `Quick
        test_pool_never_aliases;
      tc "pool: retained bytes bounded" `Quick test_pool_bounded;
      QCheck_alcotest.to_alcotest prop_fill_view;
      QCheck_alcotest.to_alcotest prop_kernels_vs_byte_loops;
      tc "view fill allocates nothing" `Quick test_fill_view_allocates_nothing;
      tc "pool: take/give allocate nothing" `Quick
        test_pool_take_give_allocates_nothing;
      tc "slabs: a slot given back is retaken" `Quick test_slabs_retake;
      QCheck_alcotest.to_alcotest prop_iov_blit_runs;
      tc "iov: payload exceeding the regions raises" `Quick test_iov_blit_exceeds;
    ] )
