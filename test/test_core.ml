(* Tests for the mpicd core: custom datatype API + point-to-point. *)

module Buf = Mpicd_buf.Buf
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Fault = Mpicd_simnet.Fault
module Dt = Mpicd_datatype.Datatype
module Custom = Mpicd.Custom
module Mpi = Mpicd.Mpi
module Stats = Mpicd_simnet.Stats

let check_int = Alcotest.(check int)

let pattern n =
  let b = Buf.create n in
  for i = 0 to n - 1 do
    Buf.set_u8 b i ((i * 13 + 5) land 0xff)
  done;
  b

(* --- custom datatypes used across the tests --- *)

(* An int array serialized as little-endian i32s, with instrumentation
   for the state lifecycle.  A pure pack/unpack type (no regions). *)
let int_array_dt ?(state_log = ref []) () : int array Custom.t =
  Custom.create
    {
      state =
        (fun _arr ~count:_ ->
          state_log := `Create :: !state_log;
          ());
      state_free = (fun () -> state_log := `Free :: !state_log);
      query = (fun () arr ~count -> 4 * Array.length arr * count);
      pack =
        (fun () arr ~count:_ ~offset ~dst ->
          let len = min (Buf.length dst) ((4 * Array.length arr) - offset) in
          (* byte-granular packing, robust to unaligned fragments *)
          for i = 0 to len - 1 do
            let byte_index = offset + i in
            let v = Int32.of_int arr.(byte_index / 4) in
            let shifted = Int32.shift_right_logical v (8 * (byte_index mod 4)) in
            Buf.set_u8 dst i (Int32.to_int shifted land 0xff)
          done;
          len);
      unpack =
        (fun () arr ~count:_ ~offset ~src ->
          for i = 0 to Buf.length src - 1 do
            let byte_index = offset + i in
            let word = byte_index / 4 and shift = 8 * (byte_index mod 4) in
            let cur = Int32.of_int arr.(word) in
            let mask = Int32.shift_left 0xFFl shift in
            let v =
              Int32.logor
                (Int32.logand cur (Int32.lognot mask))
                (Int32.shift_left (Int32.of_int (Buf.get_u8 src i)) shift)
            in
            arr.(word) <- Int32.to_int v land 0xFFFFFFFF
          done);
      region_count = None;
      regions = None;
    }

(* A buffer list exposed purely as zero-copy regions, with a packed
   header of per-region lengths (i32 each) — the double-vec shape. *)
let regions_dt () : Buf.t list Custom.t =
  Custom.create
    {
      state = (fun _ ~count:_ -> ());
      state_free = ignore;
      query = (fun () parts ~count:_ -> 4 * List.length parts);
      pack =
        (fun () parts ~count:_ ~offset ~dst ->
          assert (offset mod 4 = 0);
          let arr = Array.of_list parts in
          let len = min (Buf.length dst) ((4 * Array.length arr) - offset) in
          assert (len mod 4 = 0);
          for i = 0 to (len / 4) - 1 do
            Buf.set_i32 dst (4 * i)
              (Int32.of_int (Buf.length arr.((offset / 4) + i)))
          done;
          len);
      unpack =
        (fun () parts ~count:_ ~offset ~src ->
          (* verify the announced lengths match the local layout *)
          let arr = Array.of_list parts in
          for i = 0 to (Buf.length src / 4) - 1 do
            let announced = Int32.to_int (Buf.get_i32 src (4 * i)) in
            if announced <> Buf.length arr.((offset / 4) + i) then
              raise (Custom.Error 99)
          done);
      region_count = Some (fun () parts ~count:_ -> List.length parts);
      regions = Some (fun () parts ~count:_ -> Buf.Iov.of_list parts);
    }

(* --- basic world / p2p --- *)

let test_world_basics () =
  let w = Mpi.create_world ~size:4 () in
  check_int "size" 4 (Mpi.world_size w);
  Mpi.run w (fun comm ->
      check_int "comm size" 4 (Mpi.size comm);
      Alcotest.(check bool) "rank in range" true
        (Mpi.rank comm >= 0 && Mpi.rank comm < 4))

let test_bad_world () =
  Alcotest.check_raises "size 0" (Invalid_argument "Mpi.create_world: size must be >= 1")
    (fun () -> ignore (Mpi.create_world ~size:0 ()))

let test_bytes_roundtrip () =
  let w = Mpi.create_world ~size:2 () in
  let src = pattern 2000 in
  let dst = Buf.create 2000 in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then Mpi.send comm ~dst:1 ~tag:5 (Mpi.Bytes src)
      else begin
        let st = Mpi.recv comm ~source:0 ~tag:5 (Mpi.Bytes dst) in
        check_int "source" 0 st.source;
        check_int "tag" 5 st.tag;
        check_int "len" 2000 st.len;
        Alcotest.(check bool) "payload" true (Buf.equal src dst)
      end)

let test_any_source_any_tag () =
  let w = Mpi.create_world ~size:3 () in
  Mpi.run w (fun comm ->
      match Mpi.rank comm with
      | 0 ->
          let d = Buf.create 4 in
          let st1 = Mpi.recv comm (Mpi.Bytes d) in
          let st2 = Mpi.recv comm (Mpi.Bytes d) in
          let sources = List.sort compare [ st1.source; st2.source ] in
          Alcotest.(check (list int)) "both senders seen" [ 1; 2 ] sources
      | r -> Mpi.send comm ~dst:0 ~tag:(100 + r) (Mpi.Bytes (pattern 4)))

let test_self_send () =
  let w = Mpi.create_world ~size:1 () in
  let src = pattern 64 and dst = Buf.create 64 in
  Mpi.run w (fun comm ->
      let r = Mpi.isend comm ~dst:0 ~tag:1 (Mpi.Bytes src) in
      let st = Mpi.recv comm ~source:0 ~tag:1 (Mpi.Bytes dst) in
      ignore (Mpi.wait r);
      check_int "len" 64 st.len;
      Alcotest.(check bool) "payload" true (Buf.equal src dst))

let test_typed_vector_roundtrip () =
  let w = Mpi.create_world ~size:2 () in
  let dt = Dt.vector ~count:8 ~blocklength:2 ~stride:4 Dt.int32 in
  let src = pattern (Dt.extent dt) in
  let dst = Buf.create (Dt.extent dt) in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0 (Mpi.Typed { dt; count = 1; base = src })
      else begin
        let st = Mpi.recv comm (Mpi.Typed { dt; count = 1; base = dst }) in
        check_int "len = packed size" (Dt.size dt) st.len;
        Dt.iter_blocks dt ~count:1 ~f:(fun ~disp ~len ->
            for i = disp to disp + len - 1 do
              if Buf.get_u8 src i <> Buf.get_u8 dst i then
                Alcotest.failf "typed byte %d differs" i
            done)
      end)

let test_typed_to_bytes_interop () =
  (* A typed send is a packed byte stream on the wire: a Bytes receive
     of the packed size must observe exactly the packed bytes. *)
  let w = Mpi.create_world ~size:2 () in
  let dt = Dt.vector ~count:3 ~blocklength:1 ~stride:2 Dt.int32 in
  let src = pattern (Dt.extent dt) in
  let expect = Buf.create (Dt.size dt) in
  ignore (Dt.pack dt ~count:1 ~src ~dst:expect);
  let dst = Buf.create (Dt.size dt) in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0 (Mpi.Typed { dt; count = 1; base = src })
      else begin
        ignore (Mpi.recv comm (Mpi.Bytes dst));
        Alcotest.(check bool) "wire format is packed" true (Buf.equal expect dst)
      end)

let test_custom_pack_roundtrip () =
  let w = Mpi.create_world ~size:2 () in
  let send_log = ref [] and recv_log = ref [] in
  let dt_send = int_array_dt ~state_log:send_log () in
  let dt_recv = int_array_dt ~state_log:recv_log () in
  let src = Array.init 300 (fun i -> (i * 7919) land 0xFFFFFFF) in
  let dst = Array.make 300 0 in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:1 (Mpi.Custom { dt = dt_send; obj = src; count = 1 })
      else begin
        let st = Mpi.recv comm (Mpi.Custom { dt = dt_recv; obj = dst; count = 1 }) in
        check_int "len" (4 * 300) st.len;
        Alcotest.(check (array int)) "values" src dst
      end);
  Alcotest.(check (list (of_pp Fmt.nop))) "send state lifecycle"
    [ `Free; `Create ] !send_log;
  Alcotest.(check (list (of_pp Fmt.nop))) "recv state lifecycle"
    [ `Free; `Create ] !recv_log

let test_custom_regions_roundtrip () =
  let w = Mpi.create_world ~size:2 () in
  let dt = regions_dt () in
  let parts = [ pattern 100; pattern 2048; pattern 17 ] in
  let sinks = [ Buf.create 100; Buf.create 2048; Buf.create 17 ] in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:2 (Mpi.Custom { dt; obj = parts; count = 1 })
      else begin
        let st = Mpi.recv comm (Mpi.Custom { dt; obj = sinks; count = 1 }) in
        check_int "len = header + regions" (12 + 100 + 2048 + 17) st.len;
        List.iter2
          (fun a b -> Alcotest.(check bool) "region" true (Buf.equal a b))
          parts sinks
      end)

let test_custom_regions_zero_copy () =
  (* Region bytes must never be memcpy'd by the CPU on either side:
     only the small packed header is. *)
  let w = Mpi.create_world ~size:2 () in
  let stats = Mpi.world_stats w in
  let dt = regions_dt () in
  let big = 1024 * 1024 in
  let parts = [ pattern big ] in
  let sinks = [ Buf.create big ] in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0 (Mpi.Custom { dt; obj = parts; count = 1 })
      else ignore (Mpi.recv comm (Mpi.Custom { dt; obj = sinks; count = 1 })));
  Alcotest.(check bool) "payload delivered" true
    (Buf.equal (List.hd parts) (List.hd sinks));
  Alcotest.(check bool)
    (Printf.sprintf "copied bytes (%d) << payload" (Stats.get stats Bytes_copied))
    true
    (Stats.get stats Bytes_copied < big / 100)

let test_custom_pack_error_propagates () =
  let w = Mpi.create_world ~size:2 () in
  let failing : unit Custom.t =
    Custom.create
      {
        state = (fun _ ~count:_ -> ());
        state_free = ignore;
        query = (fun () () ~count:_ -> 64);
        pack = (fun () () ~count:_ ~offset:_ ~dst:_ -> raise (Custom.Error 13));
        unpack = (fun () () ~count:_ ~offset:_ ~src:_ -> ());
        region_count = None;
        regions = None;
      }
  in
  let saw_error = ref false in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        match Mpi.send comm ~dst:1 ~tag:0 (Mpi.Custom { dt = failing; obj = (); count = 1 }) with
        | () -> Alcotest.fail "expected Mpi_error"
        | exception Mpi.Mpi_error (Mpi.Callback_failed 13) ->
            saw_error := true;
            (* unblock the receiver *)
            Mpi.send comm ~dst:1 ~tag:0 (Mpi.Bytes (Buf.create 64))
      else ignore (Mpi.recv comm (Mpi.Bytes (Buf.create 64))));
  Alcotest.(check bool) "error seen" true !saw_error

(* A failing state callback surfaces as every other callback does:
   send, isend, recv, irecv and buffer_size raise [Callback_failed]
   with its code, and nothing is posted. *)
let test_custom_state_error_propagates () =
  let failing : unit Custom.t =
    Custom.create
      {
        state = (fun _ ~count:_ -> raise (Custom.Error 5));
        state_free = ignore;
        query = (fun () () ~count:_ -> 64);
        pack = (fun () () ~count:_ ~offset:_ ~dst:_ -> 0);
        unpack = (fun () () ~count:_ ~offset:_ ~src:_ -> ());
        region_count = None;
        regions = None;
      }
  in
  let buf = Mpi.Custom { dt = failing; obj = (); count = 1 } in
  let expect what f =
    match f () with
    | () -> Alcotest.failf "%s: no error" what
    | exception Mpi.Mpi_error (Mpi.Callback_failed 5) -> ()
  in
  expect "buffer_size" (fun () -> ignore (Mpi.buffer_size buf));
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        expect "send" (fun () -> Mpi.send comm ~dst:1 ~tag:0 buf);
        expect "isend" (fun () -> ignore (Mpi.isend comm ~dst:1 ~tag:0 buf));
        expect "recv" (fun () -> ignore (Mpi.recv comm ~source:1 ~tag:0 buf));
        expect "irecv" (fun () -> ignore (Mpi.irecv comm ~source:1 ~tag:0 buf))
      end)

let test_custom_unpack_error_propagates () =
  let w = Mpi.create_world ~size:2 () in
  let dt = regions_dt () in
  (* Receiver declares a different region length -> unpack raises 99. *)
  let parts = [ pattern 64 ] in
  let sinks = [ Buf.create 32; Buf.create 32 ] in
  let saw = ref false in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0 (Mpi.Custom { dt; obj = parts; count = 1 })
      else
        match Mpi.recv comm (Mpi.Custom { dt; obj = sinks; count = 1 }) with
        | _ -> Alcotest.fail "expected error"
        | exception Mpi.Mpi_error (Mpi.Callback_failed 99) -> saw := true);
  Alcotest.(check bool) "error seen" true !saw

(* A custom datatype over one buffer, all of it packed. *)
let packed_dt : Buf.t Custom.t =
  Custom.create
    {
      state = (fun _ ~count:_ -> ());
      state_free = ignore;
      query = (fun () b ~count:_ -> Buf.length b);
      pack =
        (fun () b ~count:_ ~offset ~dst ->
          let n = min (Buf.length dst) (Buf.length b - offset) in
          Buf.blit ~src:b ~src_pos:offset ~dst ~dst_pos:0 ~len:n;
          n);
      unpack =
        (fun () b ~count:_ ~offset ~src ->
          Buf.blit ~src ~src_pos:0 ~dst:b ~dst_pos:offset ~len:(Buf.length src));
      region_count = None;
      regions = None;
    }

(* Bounce buffers go back to the world's pool only after a clean
   completion, the same with no plan and with a clean one: a clean
   transfer returns both, a send whose pack callback fails returns
   none, and a receive that completes with an error keeps its own.  On
   a link that drops everything both sides fail, and neither returns
   its buffer. *)
let test_custom_bounce_returned_only_when_clean () =
  let retained ?plan ~send_len ~recv_len ~send_dt () =
    let w = Mpi.create_world ~size:2 () in
    Mpi.set_faults w plan;
    Mpi.run w (fun comm ->
        if Mpi.rank comm = 0 then
          let obj = Mpi.Custom { dt = send_dt; obj = pattern send_len; count = 1 } in
          match Mpi.send comm ~dst:1 ~tag:0 obj with
          | () -> ()
          | exception Mpi.Mpi_error (Mpi.Callback_failed _) ->
              Mpi.send comm ~dst:1 ~tag:0 (Mpi.Bytes (pattern recv_len))
          | exception Mpi.Mpi_error (Mpi.Timeout _) -> ()
        else
          let sink = Buf.create recv_len in
          let obj = Mpi.Custom { dt = packed_dt; obj = sink; count = 1 } in
          match Mpi.recv comm obj with
          | _ -> ()
          | exception Mpi.Mpi_error (Mpi.Truncated _ | Mpi.Timeout _) -> ());
    Buf.Pool.retained_bytes (Mpi.world_pool w)
  in
  let failing : Buf.t Custom.t =
    Custom.create
      {
        state = (fun _ ~count:_ -> ());
        state_free = ignore;
        query = (fun () b ~count:_ -> Buf.length b);
        pack = (fun () _ ~count:_ ~offset:_ ~dst:_ -> raise (Custom.Error 13));
        unpack = (fun () _ ~count:_ ~offset:_ ~src:_ -> ());
        region_count = None;
        regions = None;
      }
  in
  List.iter
    (fun (mode, plan) ->
      let retained = retained ?plan in
      check_int (mode ^ ": clean: both bounce buffers back") 128
        (retained ~send_len:64 ~recv_len:64 ~send_dt:packed_dt ());
      (* the receiver's bounce buffer is a custom one; the send's is not *)
      check_int (mode ^ ": failed pack: only the receiver's") 64
        (retained ~send_len:64 ~recv_len:64 ~send_dt:failing ());
      check_int (mode ^ ": truncated receive: only the sender's") 128
        (retained ~send_len:128 ~recv_len:64 ~send_dt:packed_dt ()))
    [ ("no plan", None); ("clean plan", Some (Fault.make ())) ];
  let dead_link =
    Fault.make ~max_retries:2 ~rto_ns:1_000. ~link:{ Fault.clean_link with drop_p = 1. } ()
  in
  check_int "dead link: neither" 0
    (retained ~plan:dead_link ~send_len:64 ~recv_len:64 ~send_dt:packed_dt ())

let test_truncation_error () =
  let w = Mpi.create_world ~size:2 () in
  let saw = ref false in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0 (Mpi.Bytes (pattern 100))
      else
        match Mpi.recv comm (Mpi.Bytes (Buf.create 10)) with
        | _ -> Alcotest.fail "expected truncation"
        | exception Mpi.Mpi_error (Mpi.Truncated { expected = 100; capacity = 10 })
          ->
            saw := true);
  Alcotest.(check bool) "truncation seen" true !saw

let test_isend_irecv_waitall () =
  let w = Mpi.create_world ~size:2 () in
  let n = 16 in
  let srcs = Array.init n (fun i -> pattern (64 + i)) in
  let dsts = Array.init n (fun i -> Buf.create (64 + i)) in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        let reqs =
          Array.to_list
            (Array.mapi (fun i b -> Mpi.isend comm ~dst:1 ~tag:i (Mpi.Bytes b)) srcs)
        in
        ignore (Mpi.waitall reqs)
      end
      else begin
        let reqs =
          Array.to_list
            (Array.mapi
               (fun i b -> Mpi.irecv comm ~source:0 ~tag:i (Mpi.Bytes b))
               dsts)
        in
        let sts = Mpi.waitall reqs in
        List.iteri (fun i (st : Mpi.status) -> check_int "len" (64 + i) st.len) sts;
        Array.iteri
          (fun i d ->
            Alcotest.(check bool) (Printf.sprintf "payload %d" i) true
              (Buf.equal srcs.(i) d))
          dsts
      end)

let test_wait_idempotent () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        let r = Mpi.isend comm ~dst:1 ~tag:0 (Mpi.Bytes (pattern 8)) in
        let s1 = Mpi.wait r in
        let s2 = Mpi.wait r in
        check_int "same len" s1.len s2.len
      end
      else ignore (Mpi.recv comm (Mpi.Bytes (Buf.create 8))))

let test_probe_then_recv () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then Mpi.send comm ~dst:1 ~tag:42 (Mpi.Bytes (pattern 512))
      else begin
        let st = Mpi.probe comm ~source:0 ~tag:42 () in
        check_int "probed len" 512 st.len;
        check_int "probed tag" 42 st.tag;
        let dst = Buf.create st.len in
        let st2 = Mpi.recv comm ~source:0 ~tag:42 (Mpi.Bytes dst) in
        check_int "received len" 512 st2.len
      end)

let test_iprobe_none () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 1 then
        Alcotest.(check bool) "nothing pending" true
          (Mpi.iprobe comm ~source:0 () = None))

let test_mprobe_mrecv () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then Mpi.send comm ~dst:1 ~tag:9 (Mpi.Bytes (pattern 128))
      else begin
        let st, msg = Mpi.mprobe comm ~source:0 ~tag:9 () in
        check_int "mprobe len" 128 st.len;
        (* allocate based on the probed size — the mpi4py pattern *)
        let dst = Buf.create st.len in
        let st2 = Mpi.mrecv comm msg (Mpi.Bytes dst) in
        check_int "len" 128 st2.len
      end)

let test_barrier_ranks n =
  let w = Mpi.create_world ~size:n () in
  let counter = ref 0 in
  let after = ref (-1) in
  Mpi.run w (fun comm ->
      incr counter;
      Mpi.barrier comm;
      (* all ranks must have incremented before anyone passes *)
      if !after < 0 then after := !counter;
      Mpi.barrier comm);
  check_int "all arrived before release" n !after

let test_barrier_2 () = test_barrier_ranks 2
let test_barrier_4 () = test_barrier_ranks 4
let test_barrier_8 () = test_barrier_ranks 8

let test_internal_tags_isolated () =
  (* Internal-kind traffic must not match user receives. *)
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        Mpi.Internal.send_k comm Mpi.Internal.Internal ~dst:1 ~tag:7
          (Mpi.Bytes (pattern 4));
        Mpi.send comm ~dst:1 ~tag:7 (Mpi.Bytes (pattern 8))
      end
      else begin
        (* user recv posted first must match the user message (8B), not
           the earlier internal one (4B) *)
        let dst = Buf.create 8 in
        let st = Mpi.recv comm ~source:0 ~tag:7 (Mpi.Bytes dst) in
        check_int "user message" 8 st.len;
        let d2 = Buf.create 4 in
        let st2 =
          Mpi.Internal.recv_k comm Mpi.Internal.Internal ~source:0 ~tag:7
            (Mpi.Bytes d2)
        in
        check_int "internal message" 4 st2.len
      end)

let test_unpack_shuffle_out_of_order () =
  (* With inorder:false and the shuffle knob on, offset-based unpack
     must still reconstruct the data (fragments arrive out of order). *)
  let w = Mpi.create_world ~size:2 () in
  Mpi.set_unpack_shuffle w ~seed:(Some 1234);
  let log = ref [] in
  let make_dt () : Buf.t Custom.t =
    Custom.create ~inorder:false
      {
        state = (fun _ ~count:_ -> ());
        state_free = ignore;
        query = (fun () b ~count:_ -> Buf.length b);
        pack =
          (fun () b ~count:_ ~offset ~dst ->
            let len = min (Buf.length dst) (Buf.length b - offset) in
            Buf.blit ~src:b ~src_pos:offset ~dst ~dst_pos:0 ~len;
            len);
        unpack =
          (fun () b ~count:_ ~offset ~src ->
            log := offset :: !log;
            Buf.blit ~src ~src_pos:0 ~dst:b ~dst_pos:offset
              ~len:(Buf.length src));
        region_count = None;
        regions = None;
      }
  in
  let n = 50 * 1024 in
  let src = pattern n and dst = Buf.create n in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0 (Mpi.Custom { dt = make_dt (); obj = src; count = 1 })
      else
        ignore (Mpi.recv comm (Mpi.Custom { dt = make_dt (); obj = dst; count = 1 })));
  Alcotest.(check bool) "data reconstructed" true (Buf.equal src dst);
  let offsets = List.rev !log in
  let sorted = List.sort compare offsets in
  Alcotest.(check bool) "unpack really happened out of order" true
    (offsets <> sorted)

let test_buffer_size () =
  check_int "bytes" 10 (Mpi.buffer_size (Mpi.Bytes (Buf.create 10)));
  let dt = Dt.contiguous 3 Dt.int32 in
  check_int "typed" 24
    (Mpi.buffer_size (Mpi.Typed { dt; count = 2; base = Buf.create 24 }));
  let cdt = regions_dt () in
  check_int "custom = header + regions" (8 + 30)
    (Mpi.buffer_size
       (Mpi.Custom { dt = cdt; obj = [ Buf.create 10; Buf.create 20 ]; count = 1 }))

(* A query or regions callback that raises still frees the state,
   exactly once, and surfaces as [Callback_failed], as a send would. *)
let test_buffer_size_callback_fails () =
  List.iter
    (fun (what, query, regions) ->
      let freed = ref 0 in
      let dt : unit Custom.t =
        Custom.create
          {
            state = (fun () ~count:_ -> ());
            state_free = (fun () -> incr freed);
            query;
            pack = (fun () () ~count:_ ~offset:_ ~dst:_ -> 0);
            unpack = (fun () () ~count:_ ~offset:_ ~src:_ -> ());
            region_count = Some (fun () () ~count:_ -> 1);
            regions = Some regions;
          }
      in
      (match Mpi.buffer_size (Mpi.Custom { dt; obj = (); count = 1 }) with
      | n -> Alcotest.failf "%s: size %d, expected a failure" what n
      | exception Mpi.Mpi_error (Mpi.Callback_failed 7) -> ());
      check_int (what ^ ": state freed once") 1 !freed)
    [
      ("query raises", (fun () () ~count:_ -> raise (Custom.Error 7)), fun () () ~count:_ ->
        Buf.Iov.empty);
      ("regions raise", (fun () () ~count:_ -> 0), fun () () ~count:_ -> raise (Custom.Error 7));
    ]

let test_bad_args () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        (match Mpi.send comm ~dst:5 ~tag:0 (Mpi.Bytes (Buf.create 1)) with
        | () -> Alcotest.fail "bad rank accepted"
        | exception Invalid_argument _ -> ());
        match Mpi.send comm ~dst:1 ~tag:(-3) (Mpi.Bytes (Buf.create 1)) with
        | () -> Alcotest.fail "bad tag accepted"
        | exception Invalid_argument _ -> ()
      end)

let test_sendrecv_ring () =
  let n = 4 in
  let w = Mpi.create_world ~size:n () in
  Mpi.run w (fun comm ->
      let r = Mpi.rank comm in
      let next = (r + 1) mod n and prev = (r + n - 1) mod n in
      let out = Buf.of_string (Printf.sprintf "%02d" r) in
      let inc = Buf.create 2 in
      let st =
        Mpi.sendrecv comm ~dst:next ~send_tag:0 (Mpi.Bytes out) ~source:prev
          ~recv_tag:0 (Mpi.Bytes inc)
      in
      check_int "source" prev st.source;
      Alcotest.(check string) "payload" (Printf.sprintf "%02d" prev)
        (Buf.to_string inc))

let test_request_test () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        (* rendezvous send cannot complete before the recv is posted *)
        let r = Mpi.isend comm ~dst:1 ~tag:0 (Mpi.Bytes (pattern (256 * 1024))) in
        Alcotest.(check bool) "not yet complete" true (Mpi.test r = None);
        let st = Mpi.wait r in
        check_int "len" (256 * 1024) st.len;
        Alcotest.(check bool) "test after completion" true
          (match Mpi.test r with Some s -> s.len = st.len | None -> false)
      end
      else begin
        Engine.sleep (Mpi.world_engine (Mpi.world_of comm)) 10_000.;
        ignore (Mpi.recv comm (Mpi.Bytes (Buf.create (256 * 1024))))
      end)

let test_waitany () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        let r1 = Mpi.irecv comm ~source:1 ~tag:1 (Mpi.Bytes (Buf.create 4)) in
        let r2 = Mpi.irecv comm ~source:1 ~tag:2 (Mpi.Bytes (Buf.create 4)) in
        let idx, st = Mpi.waitany [ r1; r2 ] in
        Alcotest.(check bool) "an index" true (idx = 0 || idx = 1);
        check_int "len" 4 st.len;
        ignore (Mpi.waitall [ r1; r2 ])
      end
      else begin
        Mpi.send comm ~dst:0 ~tag:2 (Mpi.Bytes (pattern 4));
        Mpi.send comm ~dst:0 ~tag:1 (Mpi.Bytes (pattern 4))
      end);
  Alcotest.check_raises "empty waitany"
    (Invalid_argument "Mpi.waitany: empty request list") (fun () ->
      ignore (Mpi.waitany []))

let test_waitany_nonhead_first () =
  (* only the SECOND request ever completes: waitany must not block on
     the head *)
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        let never = Mpi.irecv comm ~source:1 ~tag:99 (Mpi.Bytes (Buf.create 4)) in
        let soon = Mpi.irecv comm ~source:1 ~tag:1 (Mpi.Bytes (Buf.create 4)) in
        let idx, st = Mpi.waitany [ never; soon ] in
        check_int "second request won" 1 idx;
        check_int "len" 4 st.len;
        (* unblock the pending recv so the world can finish *)
        Mpi.send comm ~dst:1 ~tag:0 (Mpi.Bytes (Buf.create 1));
        ignore (Mpi.wait never)
      end
      else begin
        Mpi.send comm ~dst:0 ~tag:1 (Mpi.Bytes (pattern 4));
        ignore (Mpi.recv comm ~source:0 ~tag:0 (Mpi.Bytes (Buf.create 1)));
        Mpi.send comm ~dst:0 ~tag:99 (Mpi.Bytes (pattern 4))
      end)

(* A loser that never completes leaves nothing blocked: the world
   finishes with it still pending, and revoking its communicator
   afterwards cancels it. *)
let test_waitany_loser_left_pending () =
  let w = Mpi.create_world ~size:2 () in
  let kept = ref None in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        let never = Mpi.irecv comm ~source:1 ~tag:99 (Mpi.Bytes (Buf.create 4)) in
        let soon = Mpi.irecv comm ~source:1 ~tag:1 (Mpi.Bytes (Buf.create 4)) in
        let idx, st = Mpi.waitany [ never; soon ] in
        check_int "second request won" 1 idx;
        check_int "len" 4 st.len;
        kept := Some (comm, never)
      end
      else Mpi.send comm ~dst:0 ~tag:1 (Mpi.Bytes (pattern 4)));
  match !kept with
  | None -> Alcotest.fail "rank 0 did not finish"
  | Some (comm, never) ->
      Alcotest.(check bool) "the loser is still pending" true (Mpi.test never = None);
      let e = Mpi.world_engine w in
      Engine.spawn e (fun () ->
          Mpi.comm_revoke comm;
          match Mpi.wait never with
          | _ -> Alcotest.fail "the loser survived a revocation"
          | exception Mpi.Mpi_error Mpi.Revoked -> ());
      Engine.run e;
      check_int "the loser was cancelled" 1 (Stats.get (Mpi.world_stats w) Ops_cancelled)

let test_mpi_pack_unpack () =
  let w = Mpi.create_world ~size:1 () in
  Mpi.run w (fun comm ->
      let dt = Dt.vector ~count:4 ~blocklength:1 ~stride:2 Dt.int32 in
      let src = pattern (Dt.extent dt * 2) in
      let packed = Buf.create (2 * Mpi.pack_size dt ~count:1) in
      let p1 = Mpi.pack comm dt ~count:1 ~src ~dst:packed ~position:0 in
      check_int "position advances" (Dt.size dt) p1;
      let p2 =
        Mpi.pack comm dt ~count:1 ~src:(Buf.sub src ~pos:(Dt.extent dt) ~len:(Dt.extent dt))
          ~dst:packed ~position:p1
      in
      check_int "second position" (2 * Dt.size dt) p2;
      (* unpack both back *)
      let sink = Buf.create (Dt.extent dt * 2) in
      let q1 = Mpi.unpack comm dt ~count:1 ~src:packed ~position:0 ~dst:sink in
      let _q2 =
        Mpi.unpack comm dt ~count:1 ~src:packed ~position:q1
          ~dst:(Buf.sub sink ~pos:(Dt.extent dt) ~len:(Dt.extent dt))
      in
      Dt.iter_blocks dt ~count:1 ~f:(fun ~disp ~len ->
          for i = disp to disp + len - 1 do
            if Buf.get_u8 src i <> Buf.get_u8 sink i then
              Alcotest.failf "byte %d differs" i
          done);
      (* bad position *)
      match Mpi.pack comm dt ~count:1 ~src ~dst:packed ~position:(Buf.length packed) with
      | _ -> Alcotest.fail "expected range error"
      | exception Invalid_argument _ -> ())

let test_many_ranks_ring () =
  (* 8-rank ring exchange: each rank sends to (r+1) mod n. *)
  let n = 8 in
  let w = Mpi.create_world ~size:n () in
  let payload r = Buf.of_string (Printf.sprintf "from-%d" r) in
  Mpi.run w (fun comm ->
      let r = Mpi.rank comm in
      let next = (r + 1) mod n and prev = (r + n - 1) mod n in
      let req = Mpi.isend comm ~dst:next ~tag:0 (Mpi.Bytes (payload r)) in
      let dst = Buf.create 6 in
      let st = Mpi.recv comm ~source:prev ~tag:0 (Mpi.Bytes dst) in
      ignore (Mpi.wait req);
      check_int "source" prev st.source;
      Alcotest.(check string) "payload" (Printf.sprintf "from-%d" prev)
        (Buf.to_string dst))


(* --- communicator split / dup --- *)

let test_comm_split_groups () =
  let n = 6 in
  let w = Mpi.create_world ~size:n () in
  Mpi.run w (fun comm ->
      let me = Mpi.rank comm in
      (* even / odd split, reverse ordering within the odd group *)
      let color = me mod 2 in
      let key = if color = 1 then -me else me in
      let sub = Mpi.comm_split comm ~color ~key in
      check_int "subgroup size" 3 (Mpi.size sub);
      (* evens keep ascending order; odds are reversed *)
      let expect_rank =
        if color = 0 then me / 2 else (n - 1 - me) / 2
      in
      check_int
        (Printf.sprintf "world rank %d sub rank" me)
        expect_rank (Mpi.rank sub);
      (* p2p within the subgroup *)
      let next = (Mpi.rank sub + 1) mod Mpi.size sub in
      let prev = (Mpi.rank sub + Mpi.size sub - 1) mod Mpi.size sub in
      let out = Buf.of_string (Printf.sprintf "%d" color) in
      let inc = Buf.create 1 in
      let st =
        Mpi.sendrecv sub ~dst:next ~send_tag:0 (Mpi.Bytes out) ~source:prev
          ~recv_tag:0 (Mpi.Bytes inc)
      in
      check_int "source is subgroup-relative" prev st.source;
      (* the message stayed within our colour *)
      Alcotest.(check string) "same colour" (string_of_int color)
        (Buf.to_string inc))

let test_comm_dup_isolated_tag_space () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      let dup = Mpi.comm_dup comm in
      if Mpi.rank comm = 0 then begin
        (* same tag on both communicators: no cross-matching *)
        Mpi.send comm ~dst:1 ~tag:7 (Mpi.Bytes (Buf.of_string "world"));
        Mpi.send dup ~dst:1 ~tag:7 (Mpi.Bytes (Buf.of_string "dup!!"))
      end
      else begin
        (* receive in the opposite order: isolation must hold *)
        let b1 = Buf.create 5 in
        ignore (Mpi.recv dup ~source:0 ~tag:7 (Mpi.Bytes b1));
        Alcotest.(check string) "dup comm message" "dup!!" (Buf.to_string b1);
        let b2 = Buf.create 5 in
        ignore (Mpi.recv comm ~source:0 ~tag:7 (Mpi.Bytes b2));
        Alcotest.(check string) "world message" "world" (Buf.to_string b2)
      end)

let test_comm_split_collectives () =
  (* barrier and bcast work on a split communicator *)
  let w = Mpi.create_world ~size:4 () in
  Mpi.run w (fun comm ->
      let sub = Mpi.comm_split comm ~color:(Mpi.rank comm / 2) ~key:0 in
      Mpi.barrier sub;
      let b =
        if Mpi.rank sub = 0 then
          Buf.of_string (Printf.sprintf "c%d" (Mpi.rank comm / 2))
        else Buf.create 2
      in
      (* linear bcast via sub's p2p *)
      if Mpi.rank sub = 0 then
        for i = 1 to Mpi.size sub - 1 do
          Mpi.send sub ~dst:i ~tag:0 (Mpi.Bytes b)
        done
      else ignore (Mpi.recv sub ~source:0 ~tag:0 (Mpi.Bytes b));
      Alcotest.(check string) "subgroup payload"
        (Printf.sprintf "c%d" (Mpi.rank comm / 2))
        (Buf.to_string b))

(* --- randomized stress: message storms --- *)

(* Every ordered pair of ranks exchanges a random batch of messages
   with random sizes (spanning eager and rendezvous) and shuffled
   receive order (matching by tag); every payload must arrive intact.
   Exercises matching, unexpected queues, FIFO ordering and both
   protocols under load. *)
let storm_once ~seed ~nranks ~msgs_per_pair =
  let module Rng = Mpicd_simnet.Rng in
  let rng = Rng.create seed in
  let sizes =
    Array.init nranks (fun _ ->
        Array.init nranks (fun _ ->
            Array.init msgs_per_pair (fun _ ->
                match Rng.int rng 4 with
                | 0 -> 1 + Rng.int rng 64
                | 1 -> 1024 + Rng.int rng 4096
                | 2 -> 30_000 + Rng.int rng 10_000 (* straddles eager limit *)
                | _ -> 100_000 + Rng.int rng 100_000)))
  in
  let payload ~src ~dst ~k =
    let n = sizes.(src).(dst).(k) in
    let b = Buf.create n in
    for i = 0 to n - 1 do
      Buf.set_u8 b i ((i + (src * 7) + (dst * 13) + (k * 31)) land 0xff)
    done;
    b
  in
  let w = Mpi.create_world ~size:nranks () in
  let failures = ref 0 in
  Mpi.run w (fun comm ->
      let me = Mpi.rank comm in
      (* post all sends nonblocking *)
      let sends = ref [] in
      for dst = 0 to nranks - 1 do
        for k = 0 to msgs_per_pair - 1 do
          sends :=
            Mpi.isend comm ~dst ~tag:k (Mpi.Bytes (payload ~src:me ~dst ~k))
            :: !sends
        done
      done;
      (* receive from every source, tags in a per-source shuffled order *)
      let order = Array.init msgs_per_pair (fun i -> i) in
      let rng' = Mpicd_simnet.Rng.create (seed + me) in
      for src = 0 to nranks - 1 do
        Mpicd_simnet.Rng.shuffle rng' order;
        Array.iter
          (fun k ->
            let n = sizes.(src).(me).(k) in
            let b = Buf.create n in
            let st = Mpi.recv comm ~source:src ~tag:k (Mpi.Bytes b) in
            if st.len <> n || not (Buf.equal b (payload ~src ~dst:me ~k)) then
              incr failures)
          order
      done;
      ignore (Mpi.waitall !sends));
  !failures

let test_message_storm () =
  check_int "4 ranks dense storm" 0 (storm_once ~seed:11 ~nranks:4 ~msgs_per_pair:6)

let prop_storm =
  QCheck.Test.make ~name:"core: random message storms deliver everything"
    ~count:8
    QCheck.(pair (int_range 2 5) (int_range 1 5))
    (fun (nranks, msgs) ->
      storm_once ~seed:((nranks * 100) + msgs) ~nranks ~msgs_per_pair:msgs = 0)


(* Property: for random derived datatypes, the wire stream of a Typed
   send equals Datatype.pack, and a custom datatype built from the same
   block layout produces the same bytes (cross-method equivalence over
   the full stack). *)
let gen_small_datatype =
  let open QCheck.Gen in
  let pred = oneofl [ Dt.byte; Dt.int16; Dt.int32; Dt.float64 ] in
  let rec go depth =
    if depth = 0 then pred
    else
      frequency
        [
          (2, pred);
          (2, map2 (fun n e -> Dt.contiguous n e) (1 -- 3) (go (depth - 1)));
          ( 2,
            map2
              (fun (c, b) e -> Dt.vector ~count:c ~blocklength:b ~stride:(b + 1) e)
              (pair (1 -- 3) (1 -- 2))
              (go (depth - 1)) );
        ]
  in
  go 2

let prop_comm_split_partitions =
  QCheck.Test.make ~name:"core: comm_split partitions the world" ~count:15
    QCheck.(pair (int_range 2 6) (int_range 0 1000))
    (fun (n, seed) ->
      let w = Mpi.create_world ~size:n () in
      let ok = ref true in
      Mpi.run w (fun comm ->
          let me = Mpi.rank comm in
          let color = (me * 31 + seed) mod 3 in
          let key = (seed - me) mod 5 in
          let sub = Mpi.comm_split comm ~color ~key in
          (* the subgroup size equals the number of world ranks sharing
             my colour *)
          let expected_size =
            List.length
              (List.filter
                 (fun r -> (r * 31 + seed) mod 3 = color)
                 (List.init n Fun.id))
          in
          if Mpi.size sub <> expected_size then ok := false;
          if Mpi.rank sub < 0 || Mpi.rank sub >= Mpi.size sub then ok := false;
          (* my world rank appears exactly where the sub comm says *)
          if Mpi.world_rank_of sub (Mpi.rank sub) <> me then ok := false;
          (* everyone in the subgroup can talk: token ring *)
          if Mpi.size sub > 1 then begin
            let next = (Mpi.rank sub + 1) mod Mpi.size sub in
            let prev = (Mpi.rank sub + Mpi.size sub - 1) mod Mpi.size sub in
            let out = Buf.of_string (Printf.sprintf "%03d" color) in
            let inc = Buf.create 3 in
            ignore
              (Mpi.sendrecv sub ~dst:next ~send_tag:0 (Mpi.Bytes out)
                 ~source:prev ~recv_tag:0 (Mpi.Bytes inc));
            if Buf.to_string inc <> Printf.sprintf "%03d" color then ok := false
          end);
      !ok)

let prop_wire_equivalence =
  QCheck.Test.make ~name:"core: typed and custom sends share the wire format"
    ~count:40
    (QCheck.make ~print:Dt.to_string gen_small_datatype)
    (fun dt ->
      let count = 2 in
      let need = Dt.ub dt + ((count - 1) * Dt.extent dt) + 1 in
      let src = pattern (max 1 need) in
      let expect = Buf.create (Dt.packed_size dt ~count) in
      ignore (Dt.pack dt ~count ~src ~dst:expect);
      QCheck.assume (Buf.length expect > 0);
      (* custom datatype generated from the same layout *)
      let custom_of_dt : Buf.t Custom.t =
        Custom.create
          {
            state = (fun _ ~count:_ -> ());
            state_free = ignore;
            query = (fun () _ ~count -> Dt.packed_size dt ~count);
            pack =
              (fun () base ~count ~offset ~dst ->
                Dt.pack_range dt ~count ~src:base ~packed_off:offset ~dst);
            unpack =
              (fun () base ~count ~offset ~src ->
                ignore
                  (Dt.unpack_range dt ~count ~src ~packed_off:offset ~dst:base));
            region_count = None;
            regions = None;
          }
      in
      let via_typed = Buf.create (Buf.length expect) in
      let via_custom = Buf.create (Buf.length expect) in
      let w = Mpi.create_world ~size:2 () in
      Mpi.run w (fun comm ->
          if Mpi.rank comm = 0 then begin
            Mpi.send comm ~dst:1 ~tag:0 (Mpi.Typed { dt; count; base = src });
            Mpi.send comm ~dst:1 ~tag:1
              (Mpi.Custom { dt = custom_of_dt; obj = src; count })
          end
          else begin
            ignore (Mpi.recv comm ~tag:0 (Mpi.Bytes via_typed));
            ignore (Mpi.recv comm ~tag:1 (Mpi.Bytes via_custom))
          end);
      Buf.equal expect via_typed && Buf.equal expect via_custom)

let suite =
  let tc = Alcotest.test_case in
  ( "core",
    [
      tc "world basics" `Quick test_world_basics;
      tc "bad world size" `Quick test_bad_world;
      tc "bytes roundtrip" `Quick test_bytes_roundtrip;
      tc "any source / any tag" `Quick test_any_source_any_tag;
      tc "self send" `Quick test_self_send;
      tc "typed vector roundtrip" `Quick test_typed_vector_roundtrip;
      tc "typed->bytes wire interop" `Quick test_typed_to_bytes_interop;
      tc "custom pack roundtrip + state lifecycle" `Quick test_custom_pack_roundtrip;
      tc "custom regions roundtrip" `Quick test_custom_regions_roundtrip;
      tc "custom regions are zero-copy" `Quick test_custom_regions_zero_copy;
      tc "custom pack error propagates" `Quick test_custom_pack_error_propagates;
      tc "custom unpack error propagates" `Quick test_custom_unpack_error_propagates;
      tc "truncation error" `Quick test_truncation_error;
      tc "isend/irecv/waitall" `Quick test_isend_irecv_waitall;
      tc "wait idempotent" `Quick test_wait_idempotent;
      tc "probe then recv" `Quick test_probe_then_recv;
      tc "iprobe empty" `Quick test_iprobe_none;
      tc "mprobe + mrecv" `Quick test_mprobe_mrecv;
      tc "barrier 2 ranks" `Quick test_barrier_2;
      tc "barrier 4 ranks" `Quick test_barrier_4;
      tc "barrier 8 ranks" `Quick test_barrier_8;
      tc "internal tag isolation" `Quick test_internal_tags_isolated;
      tc "out-of-order unpack (inorder=false)" `Quick test_unpack_shuffle_out_of_order;
      tc "buffer_size" `Quick test_buffer_size;
      tc "buffer_size frees a failing op's state" `Quick test_buffer_size_callback_fails;
      tc "bad arguments" `Quick test_bad_args;
      tc "sendrecv ring" `Quick test_sendrecv_ring;
      tc "request test (MPI_Test)" `Quick test_request_test;
      tc "waitany" `Quick test_waitany;
      tc "waitany non-head completes first" `Quick test_waitany_nonhead_first;
      tc "waitany loser left pending" `Quick test_waitany_loser_left_pending;
      tc "MPI_Pack/Unpack with position" `Quick test_mpi_pack_unpack;
      tc "8-rank ring" `Quick test_many_ranks_ring;
      tc "message storm" `Quick test_message_storm;
      tc "comm_split groups and ordering" `Quick test_comm_split_groups;
      tc "comm_dup isolates tag space" `Quick test_comm_dup_isolated_tag_space;
      tc "collectives on split comm" `Quick test_comm_split_collectives;
      QCheck_alcotest.to_alcotest prop_storm;
      QCheck_alcotest.to_alcotest prop_wire_equivalence;
      QCheck_alcotest.to_alcotest prop_comm_split_partitions;
      tc "custom bounce buffers recycled only when clean" `Quick
        test_custom_bounce_returned_only_when_clean;
      tc "custom state error propagates" `Quick test_custom_state_error_propagates;
    ] )
