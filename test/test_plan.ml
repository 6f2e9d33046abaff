(* Tests for the compiled pack-plan layer (Datatype.Plan): every entry
   point must be byte-identical to the interpreter engine, the cursor
   must survive out-of-order fragment offsets, and the memo cache must
   report hits/misses. *)

module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype
module Plan = Mpicd_datatype.Plan
module Stats = Mpicd_simnet.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let pattern = Dt_gen.pattern
let arb_datatype = Dt_gen.arb

(* Typed-source length covering [count] elements of [t]. *)
let src_len t ~count = max 1 (Dt.ub t + ((count - 1) * Dt.extent t))

let sample_types =
  [
    ("contig", Dt.contiguous 16 Dt.int32);
    ("vector", Dt.vector ~count:3 ~blocklength:2 ~stride:4 Dt.int32);
    ("hvector", Dt.hvector ~count:4 ~blocklength:3 ~stride_bytes:10 Dt.byte);
    ( "hindexed",
      Dt.hindexed ~blocklengths:[| 2; 1; 3 |]
        ~displacements_bytes:[| 0; 12; 20 |]
        Dt.int16 );
    ( "struct+resized",
      Dt.resized ~lb:0 ~extent:24
        (Dt.struct_ ~blocklengths:[| 3; 1 |] ~displacements_bytes:[| 0; 16 |]
           ~types:[| Dt.int32; Dt.float64 |]) );
    ("empty", Dt.contiguous 0 Dt.int32);
  ]

(* --- queries mirror the interpreter --- *)

let test_queries () =
  List.iter
    (fun (name, t) ->
      let p = Plan.build t in
      check_int (name ^ " size") (Dt.size t) (Plan.size p);
      check_int (name ^ " extent") (Dt.extent t) (Plan.extent p);
      check_int (name ^ " blocks") (Dt.blocks_per_element t) (Plan.block_count p);
      check_int (name ^ " packed_size")
        (Dt.packed_size t ~count:3)
        (Plan.packed_size p ~count:3);
      check_bool (name ^ " contiguous") (Dt.is_contiguous t)
        (Plan.is_contiguous p))
    sample_types

(* --- memo cache --- *)

let test_cache_hit_miss () =
  Plan.clear_cache ();
  let s = Stats.create () in
  let t = Dt.vector ~count:3 ~blocklength:2 ~stride:4 Dt.int32 in
  let p1 = Plan.get ~stats:s t in
  check_int "first is a miss" 1 (Stats.get s Plan_cache_misses);
  check_int "no hit yet" 0 (Stats.get s Plan_cache_hits);
  let p2 = Plan.get ~stats:s t in
  check_int "second is a hit" 1 (Stats.get s Plan_cache_hits);
  check_int "still one miss" 1 (Stats.get s Plan_cache_misses);
  check_bool "same compiled plan" true (p1 == p2);
  (* Physical-equality keying: a structurally equal but distinct value
     compiles its own plan. *)
  let t' = Dt.vector ~count:3 ~blocklength:2 ~stride:4 Dt.int32 in
  ignore (Plan.get ~stats:s t' : Plan.t);
  check_int "distinct value misses" 2 (Stats.get s Plan_cache_misses);
  check_int "global hits" 1 (Plan.cache_hits ());
  check_int "global misses" 2 (Plan.cache_misses ())

(* --- stats parity with the interpreter engine --- *)

let test_stats_parity () =
  (* Trailing gap (extent > ub): the interpreter cannot merge blocks
     across element boundaries here, so its stream-wide walk and the
     plan's per-element execution count the same blocks/memcpys. *)
  let t =
    Dt.resized ~lb:0 ~extent:48
      (Dt.vector ~count:3 ~blocklength:2 ~stride:4 Dt.int32)
  in
  let count = 2 in
  let src = pattern (src_len t ~count) in
  let run pack =
    let s = Stats.create () in
    let dst = Buf.create (Dt.packed_size t ~count) in
    pack s ~dst;
    (Stats.get s Ddt_blocks_processed, Stats.get s Memcpys, Stats.get s Bytes_copied, dst)
  in
  let bi, mi, ci, di = run (fun s ~dst -> ignore (Dt.pack ~stats:s t ~count ~src ~dst)) in
  let p = Plan.build t in
  let bp, mp, cp, dp =
    run (fun s ~dst -> ignore (Plan.pack ~stats:s p ~count ~src ~dst))
  in
  check_int "same ddt blocks" bi bp;
  check_int "same memcpys" mi mp;
  check_int "same bytes copied" ci cp;
  check_bool "same bytes" true (Buf.equal di dp);
  (* A flush layout (last block ends at the extent) merges across
     elements in the interpreter but not in the plan; total bytes still
     agree. *)
  let t' = Dt.vector ~count:3 ~blocklength:2 ~stride:4 Dt.int32 in
  let src' = pattern (src_len t' ~count) in
  let run' pack =
    let s = Stats.create () in
    let dst = Buf.create (Dt.packed_size t' ~count) in
    pack s ~dst;
    (Stats.get s Bytes_copied, dst)
  in
  let ci', di' =
    run' (fun s ~dst -> ignore (Dt.pack ~stats:s t' ~count ~src:src' ~dst))
  in
  let p' = Plan.build t' in
  let cp', dp' =
    run' (fun s ~dst -> ignore (Plan.pack ~stats:s p' ~count ~src:src' ~dst))
  in
  check_int "flush layout: same bytes copied" ci' cp';
  check_bool "flush layout: same bytes" true (Buf.equal di' dp')

(* --- cursor bookkeeping --- *)

let test_cursor_resume_and_reseek () =
  let t = Dt.hvector ~count:8 ~blocklength:1 ~stride_bytes:3 Dt.byte in
  let count = 4 in
  let p = Plan.build t in
  let psize = Plan.packed_size p ~count in
  let src = pattern (src_len t ~count) in
  let cur = Plan.cursor p in
  let frag = 3 in
  let off = ref 0 in
  while !off < psize do
    let len = min frag (psize - !off) in
    let dst = Buf.create len in
    let n =
      Plan.pack_range ~cursor:cur p ~count ~src ~packed_off:!off ~dst
    in
    check_int "sequential fragment consumed" len n;
    off := !off + len
  done;
  check_int "sequential stream never reseeks" 0 (Plan.cursor_reseeks cur);
  check_bool "every fragment resumed" true (Plan.cursor_resumes cur > 0);
  (* An out-of-order offset forces one binary-search reseek... *)
  ignore
    (Plan.pack_range ~cursor:cur p ~count ~src ~packed_off:5
       ~dst:(Buf.create 4));
  check_int "out-of-order offset reseeks" 1 (Plan.cursor_reseeks cur);
  (* ...and the stream continues sequentially from there. *)
  let before = Plan.cursor_reseeks cur in
  ignore
    (Plan.pack_range ~cursor:cur p ~count ~src ~packed_off:9
       ~dst:(Buf.create 4));
  check_int "follow-up fragment resumes" before (Plan.cursor_reseeks cur)

(* --- properties: plan = interpreter --- *)

let prop_pack_unpack_iovec_equiv =
  QCheck.Test.make
    ~name:"plan: pack/unpack/iovec byte-identical to interpreter" ~count:200
    QCheck.(pair arb_datatype (int_range 1 4))
    (fun (t, count) ->
      let p = Plan.build t in
      let n = src_len t ~count in
      let src = pattern n in
      let psize = Dt.packed_size t ~count in
      let w_i = Buf.create psize and w_p = Buf.create psize in
      ignore (Dt.pack t ~count ~src ~dst:w_i);
      ignore (Plan.pack p ~count ~src ~dst:w_p);
      let u_i = Buf.create n and u_p = Buf.create n in
      Dt.unpack t ~count ~src:w_i ~dst:u_i;
      Plan.unpack p ~count ~src:w_p ~dst:u_p;
      let iov_i = Dt.iovec t ~count ~base:src in
      let iov_p = Plan.iovec p ~count ~base:src in
      Buf.equal w_i w_p && Buf.equal u_i u_p
      && List.length iov_i = List.length iov_p
      && List.for_all2 Buf.same_memory iov_i iov_p)

let prop_sequential_ranges_equiv =
  QCheck.Test.make
    ~name:"plan: cursor pack_range/unpack_range = interpreter (any frag size)"
    ~count:200
    QCheck.(triple arb_datatype (int_range 1 3) (int_range 1 64))
    (fun (t, count, frag) ->
      let psize = Dt.packed_size t ~count in
      QCheck.assume (psize > 0);
      let p = Plan.build t in
      let n = src_len t ~count in
      let src = pattern n in
      let whole = Buf.create psize in
      ignore (Dt.pack t ~count ~src ~dst:whole);
      let out = Buf.create psize in
      let back = Buf.create n in
      let cur_p = Plan.cursor p and cur_u = Plan.cursor p in
      let off = ref 0 and ok = ref true in
      while !off < psize do
        let len = min frag (psize - !off) in
        let np =
          Plan.pack_range ~cursor:cur_p p ~count ~src ~packed_off:!off
            ~dst:(Buf.sub out ~pos:!off ~len)
        in
        let nu =
          Plan.unpack_range ~cursor:cur_u p ~count
            ~src:(Buf.sub whole ~pos:!off ~len)
            ~packed_off:!off ~dst:back
        in
        if np <> len || nu <> len then ok := false;
        off := !off + len
      done;
      let expect_back = Buf.create n in
      Dt.unpack t ~count ~src:whole ~dst:expect_back;
      !ok && Buf.equal whole out && Buf.equal expect_back back
      && Plan.cursor_reseeks cur_p = 0
      && Plan.cursor_reseeks cur_u = 0)

(* Deterministic shuffle so the property stays reproducible from the
   qcheck seed alone. *)
let shuffle seed l =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let prop_out_of_order_ranges_equiv =
  QCheck.Test.make
    ~name:"plan: out-of-order fragments (cursor reseek) = interpreter"
    ~count:200
    QCheck.(
      quad arb_datatype (int_range 1 3) (int_range 1 32) (int_range 0 1000))
    (fun (t, count, frag, seed) ->
      let psize = Dt.packed_size t ~count in
      QCheck.assume (psize > 0);
      let p = Plan.build t in
      let n = src_len t ~count in
      let src = pattern n in
      let whole = Buf.create psize in
      ignore (Dt.pack t ~count ~src ~dst:whole);
      (* the same cursor serves fragments in shuffled order *)
      let offs =
        let rec go o acc = if o >= psize then acc else go (o + frag) (o :: acc) in
        shuffle seed (go 0 [])
      in
      let out = Buf.create psize in
      let back = Buf.create n in
      let cur_p = Plan.cursor p and cur_u = Plan.cursor p in
      let ok = ref true in
      List.iter
        (fun off ->
          let len = min frag (psize - off) in
          let np =
            Plan.pack_range ~cursor:cur_p p ~count ~src ~packed_off:off
              ~dst:(Buf.sub out ~pos:off ~len)
          in
          let nu =
            Plan.unpack_range ~cursor:cur_u p ~count
              ~src:(Buf.sub whole ~pos:off ~len)
              ~packed_off:off ~dst:back
          in
          if np <> len || nu <> len then ok := false)
        offs;
      let expect_back = Buf.create n in
      Dt.unpack t ~count ~src:whole ~dst:expect_back;
      !ok && Buf.equal whole out && Buf.equal expect_back back)

(* --- the block-copy kernel's edge cases ---

   The properties above use fresh buffers at offset 0.  The block copy
   takes a word-sized fast path only between distinct bigstrings with
   both ranges in bounds, so these cover what it must hand to
   [Buf.blit] unchanged: views at odd offsets, a typed buffer and
   stream cut from one bigstring, and an out-of-range block. *)

(* Walk every fragment of a [psize]-byte stream with one cursor per
   direction; [f cur ~off ~len] copies one fragment. *)
let each_fragment ~psize ~frag f =
  let off = ref 0 in
  while !off < psize do
    let len = min frag (psize - !off) in
    f ~off:!off ~len;
    off := !off + len
  done

let prop_odd_offset_views =
  QCheck.Test.make
    ~name:"plan: typed views and streams at odd offsets 1..7 = interpreter"
    ~count:200
    QCheck.(
      quad arb_datatype (int_range 1 3) (pair (int_range 1 7) (int_range 1 7))
        (int_range 1 64))
    (fun (t, count, (so, d_o), frag) ->
      let psize = Dt.packed_size t ~count in
      let p = Plan.build t in
      let n = src_len t ~count in
      let typed = Buf.sub (pattern (n + 16)) ~pos:so ~len:n in
      (* streams and sinks sit at odd offsets of larger buffers, so
         a write outside the view shows in the base *)
      let stream () = Buf.sub (Buf.create (psize + 16)) ~pos:d_o ~len:psize in
      let sink () = Buf.sub (Buf.create (n + 16)) ~pos:so ~len:n in
      let base (b : Buf.t) = Buf.of_bigstring b.Buf.base in
      let w_i = stream () and w_p = stream () and w_r = stream () in
      ignore (Dt.pack t ~count ~src:typed ~dst:w_i);
      ignore (Plan.pack p ~count ~src:typed ~dst:w_p);
      let cur = Plan.cursor p in
      each_fragment ~psize ~frag (fun ~off ~len ->
          ignore
            (Plan.pack_range ~cursor:cur p ~count ~src:typed ~packed_off:off
               ~dst:(Buf.sub w_r ~pos:off ~len)));
      let u_i = sink () and u_p = sink () and u_r = sink () in
      Dt.unpack t ~count ~src:w_i ~dst:u_i;
      Plan.unpack p ~count ~src:w_i ~dst:u_p;
      let cur = Plan.cursor p in
      each_fragment ~psize ~frag (fun ~off ~len ->
          ignore
            (Plan.unpack_range ~cursor:cur p ~count
               ~src:(Buf.sub w_i ~pos:off ~len) ~packed_off:off ~dst:u_r));
      Buf.equal (base w_i) (base w_p)
      && Buf.equal (base w_i) (base w_r)
      && Buf.equal (base u_i) (base u_p)
      && Buf.equal (base u_i) (base u_r))

(* Typed buffer and stream are disjoint views of one bigstring. *)
let prop_shared_bigstring =
  QCheck.Test.make
    ~name:"plan: typed buffer and stream cut from one bigstring = interpreter"
    ~count:200
    QCheck.(triple arb_datatype (int_range 1 3) (int_range 1 64))
    (fun (t, count, frag) ->
      let psize = Dt.packed_size t ~count in
      let p = Plan.build t in
      let n = src_len t ~count in
      let whole = n + psize + 8 in
      let cut b =
        (Buf.sub b ~pos:1 ~len:n, Buf.sub b ~pos:(n + 5) ~len:psize)
      in
      let run f =
        let b = pattern whole in
        let typed, stream = cut b in
        f ~typed ~stream;
        b
      in
      let cursor_walk dir ~typed ~stream =
        let cur = Plan.cursor p in
        each_fragment ~psize ~frag (fun ~off ~len ->
            let stream = Buf.sub stream ~pos:off ~len in
            ignore
              (if dir = `Pack then
                 Plan.pack_range ~cursor:cur p ~count ~src:typed ~packed_off:off
                   ~dst:stream
               else
                 Plan.unpack_range ~cursor:cur p ~count ~src:stream
                   ~packed_off:off ~dst:typed))
      in
      let pack_i =
        run (fun ~typed ~stream -> ignore (Dt.pack t ~count ~src:typed ~dst:stream))
      in
      let pack_p =
        run (fun ~typed ~stream -> ignore (Plan.pack p ~count ~src:typed ~dst:stream))
      in
      let pack_r = run (cursor_walk `Pack) in
      let unpack_i =
        run (fun ~typed ~stream -> Dt.unpack t ~count ~src:stream ~dst:typed)
      in
      let unpack_p =
        run (fun ~typed ~stream -> Plan.unpack p ~count ~src:stream ~dst:typed)
      in
      let unpack_r = run (cursor_walk `Unpack) in
      Buf.equal pack_i pack_p && Buf.equal pack_i pack_r
      && Buf.equal unpack_i unpack_p && Buf.equal unpack_i unpack_r)

(* The reference for an out-of-range block: one [Buf.blit] per block,
   element by element, as plans copied before the block kernel.  Only
   the part of each block inside the window of [want] packed bytes from
   [off] is copied; [stream] holds that window. *)
let per_block_blit ?(off = 0) ?want t ~count ~pack ~typed ~stream =
  let want = Option.value want ~default:(Dt.packed_size t ~count) in
  let pos = ref 0 in
  for e = 0 to count - 1 do
    Dt.iter_blocks t ~count:1 ~f:(fun ~disp ~len ->
        let a = max !pos off and b = min (!pos + len) (off + want) in
        if a < b then begin
          let tp = (e * Dt.extent t) + disp + (a - !pos) and sp = a - off in
          let len = b - a in
          if pack then Buf.blit ~src:typed ~src_pos:tp ~dst:stream ~dst_pos:sp ~len
          else Buf.blit ~src:stream ~src_pos:sp ~dst:typed ~dst_pos:tp ~len
        end;
        pos := !pos + len)
  done

let outcome f =
  match f () with () -> None | exception Invalid_argument m -> Some m

(* A packed offset strictly inside one of [t]'s blocks, picked by
   [seed], or [0] when every block is one byte long. *)
let mid_block_offset t seed =
  let inner = ref [] and pos = ref 0 in
  Dt.iter_blocks t ~count:1 ~f:(fun ~disp:_ ~len ->
      for k = 1 to len - 1 do
        inner := (!pos + k) :: !inner
      done;
      pos := !pos + len);
  match !inner with [] -> 0 | l -> List.nth l (seed mod List.length l)

(* A plan checks a run of whole elements once, and a window's partial
   element once, so a buffer one byte short fails that check and must
   fall back to the per-block copies: the same [Invalid_argument] after
   the same writes.  Cases: a typed buffer one byte short, for the whole
   stream and for a window that starts mid-element (with [count = 1],
   mid-block); and a stream one byte short.  Short views are cut from
   longer buffers, so a copy that skipped a check would land in memory
   the reference never writes. *)
let prop_short_typed_buffer =
  QCheck.Test.make
    ~name:"plan: typed buffer one byte short raises after the same writes"
    ~count:300
    QCheck.(triple arb_datatype (int_range 1 4) small_nat)
    (fun (t, count, seed) ->
      let psize = Dt.packed_size t ~count in
      QCheck.assume (psize > 0);
      let p = Plan.build t in
      let n = src_len t ~count in
      let esize = Dt.size t in
      (* a window that starts inside one of the first [count - 1]
         elements, or inside a block of the only one *)
      let off =
        if count = 1 then mid_block_offset t seed
        else if esize >= 2 then
          (seed mod (count - 1) * esize) + 1 + (seed mod (esize - 1))
        else seed mod psize
      in
      let short b = Buf.sub b ~pos:0 ~len:(Buf.length b - 1) in
      (* run [f] on a typed buffer and a stream of [slen] bytes, each
         cut one byte short when asked; report the outcome and both
         underlying buffers *)
      let run ~pack ~typed_short ~slen f =
        let typed_b = if pack then pattern (n + 1) else Buf.create (n + 1) in
        let stream_b = if pack then Buf.create (slen + 1) else pattern (slen + 1) in
        let typed = Buf.sub typed_b ~pos:0 ~len:n in
        let typed = if typed_short then short typed else typed in
        let stream = Buf.sub stream_b ~pos:0 ~len:slen in
        let stream = if typed_short then stream else short stream in
        let o = outcome (fun () -> f ~typed ~stream) in
        (o, Buf.to_string typed_b, Buf.to_string stream_b)
      in
      let same ~pack ~typed_short ~slen reference plan =
        run ~pack ~typed_short ~slen reference = run ~pack ~typed_short ~slen plan
      in
      let whole ~pack ~typed_short =
        let reference ~typed ~stream =
          per_block_blit t ~count ~pack ~typed ~stream
        in
        let plan ~typed ~stream =
          if pack then ignore (Plan.pack p ~count ~src:typed ~dst:stream)
          else Plan.unpack p ~count ~src:stream ~dst:typed
        in
        same ~pack ~typed_short ~slen:psize reference plan
      in
      let window ~pack ~off =
        let want = psize - off in
        let reference ~typed ~stream =
          per_block_blit ~off ~want t ~count ~pack ~typed ~stream
        in
        let plan ~typed ~stream =
          ignore
            (if pack then
               Plan.pack_range p ~count ~src:typed ~packed_off:off ~dst:stream
             else
               Plan.unpack_range p ~count ~src:stream ~packed_off:off
                 ~dst:typed)
        in
        same ~pack ~typed_short:true ~slen:want reference plan
      in
      List.for_all
        (fun pack ->
          whole ~pack ~typed_short:true
          && whole ~pack ~typed_short:false
          && window ~pack ~off:0 && window ~pack ~off)
        [ true; false ])

(* Typed buffer and stream overlapping in one bigstring: each block
   must still move as one [Buf.blit] (a memmove) would move it, which
   a word copy of an overlapping block does not. *)
let prop_overlapping_views =
  QCheck.Test.make
    ~name:"plan: overlapping typed buffer and stream = per-block blits"
    ~count:200
    QCheck.(triple arb_datatype (int_range 1 4) (int_range 1 15))
    (fun (t, count, shift) ->
      let psize = Dt.packed_size t ~count in
      let p = Plan.build t in
      let n = src_len t ~count in
      let run pack f =
        let b = pattern (max n psize + shift) in
        let typed = Buf.sub b ~pos:0 ~len:n in
        let stream = Buf.sub b ~pos:shift ~len:psize in
        f ~pack ~typed ~stream;
        Buf.to_string b
      in
      let reference ~pack ~typed ~stream =
        per_block_blit t ~count ~pack ~typed ~stream
      in
      let plan ~pack ~typed ~stream =
        if pack then ignore (Plan.pack p ~count ~src:typed ~dst:stream)
        else Plan.unpack p ~count ~src:stream ~dst:typed
      in
      let window ~pack ~typed ~stream =
        ignore
          (if pack then
             Plan.pack_range p ~count ~src:typed ~packed_off:0 ~dst:stream
           else
             Plan.unpack_range p ~count ~src:stream ~packed_off:0 ~dst:typed)
      in
      List.for_all
        (fun pack ->
          let want = run pack reference in
          want = run pack plan && want = run pack window)
        [ true; false ])

(* "Blocks copied per pack = plan entry count": with a trailing gap the
   interpreter cannot merge across elements, so every entry point counts
   exactly [count * block_count] blocks, one copy each, as it does. *)
let prop_stats_counts =
  QCheck.Test.make ~name:"plan: ?stats blocks and copies = interpreter"
    ~count:200
    QCheck.(triple arb_datatype (int_range 1 4) (int_range 1 64))
    (fun (t, count, frag) ->
      let t = Dt.resized ~lb:(Dt.lb t) ~extent:(Dt.extent t + 8) t in
      let psize = Dt.packed_size t ~count in
      let p = Plan.build t in
      let n = src_len t ~count in
      let src = pattern n in
      let counts f =
        let s = Stats.create () in
        f s;
        (Stats.get s Ddt_blocks_processed, Stats.get s Memcpys, Stats.get s Bytes_copied)
      in
      let stream = Buf.create psize and sink = Buf.create n in
      let interp =
        counts (fun s -> ignore (Dt.pack ~stats:s t ~count ~src ~dst:stream))
      in
      let entries = count * Plan.block_count p in
      let plan_pack =
        counts (fun s -> ignore (Plan.pack ~stats:s p ~count ~src ~dst:stream))
      in
      let plan_unpack =
        counts (fun s -> Plan.unpack ~stats:s p ~count ~src:stream ~dst:sink)
      in
      let plan_window =
        counts (fun s ->
            ignore (Plan.pack_range ~stats:s p ~count ~src ~packed_off:0 ~dst:stream))
      in
      (* fragments split blocks the same way in both engines *)
      let frags engine =
        counts (fun s ->
            let cur = Plan.cursor p in
            each_fragment ~psize ~frag (fun ~off ~len ->
                let dst = Buf.sub stream ~pos:off ~len in
                ignore
                  (if engine = `Plan then
                     Plan.pack_range ~stats:s ~cursor:cur p ~count ~src
                       ~packed_off:off ~dst
                   else Dt.pack_range ~stats:s t ~count ~src ~packed_off:off ~dst)))
      in
      let b, m, c = interp in
      b = entries && m = entries && c = psize
      && plan_pack = interp && plan_unpack = interp && plan_window = interp
      && frags `Plan = frags `Interp)

(* A handle from [get] compiles on first use, through whichever entry
   point comes first, to the plan [build] compiles at once: each check
   below starts from a fresh, uncompiled handle. *)
let prop_first_use_equiv =
  QCheck.Test.make ~name:"plan: get compiled on first use = build" ~count:200
    QCheck.(triple arb_datatype (int_range 1 3) (int_range 1 64))
    (fun (t, count, frag) ->
      let built = Plan.build t in
      let fresh () =
        Plan.clear_cache ();
        Plan.get t
      in
      let n = src_len t ~count in
      let src = pattern n in
      let psize = Dt.packed_size t ~count in
      let packed p =
        let b = Buf.create psize in
        ignore (Plan.pack p ~count ~src ~dst:b);
        b
      in
      let whole = packed built in
      let unpacked p =
        let b = Buf.create n in
        Plan.unpack p ~count ~src:whole ~dst:b;
        b
      in
      (* the stream in [frag]-byte windows, packed or unpacked *)
      let windows ?cursor p ~pack =
        let out = Buf.create (if pack then psize else n) in
        let off = ref 0 in
        while !off < psize do
          let len = min frag (psize - !off) in
          let got =
            if pack then
              Plan.pack_range ?cursor p ~count ~src ~packed_off:!off
                ~dst:(Buf.sub out ~pos:!off ~len)
            else
              Plan.unpack_range ?cursor p ~count ~src:(Buf.sub whole ~pos:!off ~len)
                ~packed_off:!off ~dst:out
          in
          assert (got = len);
          off := !off + len
        done;
        out
      in
      let with_cursor ~pack =
        let p = fresh () in
        windows ~cursor:(Plan.cursor p) p ~pack
      in
      let iov_i = Plan.iovec built ~count ~base:src in
      let iov_p = Plan.iovec (fresh ()) ~count ~base:src in
      Plan.size (fresh ()) = Plan.size built
      && Plan.extent (fresh ()) = Plan.extent built
      && Plan.block_count (fresh ()) = Plan.block_count built
      && Plan.packed_size (fresh ()) ~count = psize
      && Plan.is_contiguous (fresh ()) = Plan.is_contiguous built
      && Buf.equal (packed (fresh ())) whole
      && Buf.equal (unpacked (fresh ())) (unpacked built)
      && Buf.equal (windows (fresh ()) ~pack:true) whole
      && Buf.equal (with_cursor ~pack:true) whole
      && Buf.equal (windows (fresh ()) ~pack:false) (unpacked built)
      && Buf.equal (with_cursor ~pack:false) (unpacked built)
      && List.length iov_i = List.length iov_p
      && List.for_all2 Buf.same_memory iov_i iov_p)

let suite =
  ( "plan",
    [
      Alcotest.test_case "queries mirror interpreter" `Quick test_queries;
      Alcotest.test_case "cache hit/miss + stats" `Quick test_cache_hit_miss;
      Alcotest.test_case "stats parity with interpreter" `Quick
        test_stats_parity;
      Alcotest.test_case "cursor resume/reseek" `Quick
        test_cursor_resume_and_reseek;
      QCheck_alcotest.to_alcotest prop_pack_unpack_iovec_equiv;
      QCheck_alcotest.to_alcotest prop_sequential_ranges_equiv;
      QCheck_alcotest.to_alcotest prop_out_of_order_ranges_equiv;
      QCheck_alcotest.to_alcotest prop_odd_offset_views;
      QCheck_alcotest.to_alcotest prop_shared_bigstring;
      QCheck_alcotest.to_alcotest prop_short_typed_buffer;
      QCheck_alcotest.to_alcotest prop_overlapping_views;
      QCheck_alcotest.to_alcotest prop_stats_counts;
      QCheck_alcotest.to_alcotest prop_first_use_equiv;
    ] )
