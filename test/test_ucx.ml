(* Tests for the UCP-like simulated transport. *)

module Buf = Mpicd_buf.Buf
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Fault = Mpicd_simnet.Fault
module Ucx = Mpicd_ucx.Ucx
module Obs = Mpicd_obs.Obs

let check_int = Alcotest.(check int)

let pattern n =
  let b = Buf.create n in
  for i = 0 to n - 1 do
    Buf.set_u8 b i ((i * 31 + 7) land 0xff)
  done;
  b

(* Build a fresh 2-worker world and run [f w0 w1 ep01 ep10] inside it. *)
let with_pair ?(config = Config.default) f =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let ctx = Ucx.create_context ~engine ~config ~stats in
  let w0 = Ucx.create_worker ctx in
  let w1 = Ucx.create_worker ctx in
  let ep01 = Ucx.connect w0 w1 in
  let ep10 = Ucx.connect w1 w0 in
  f ~engine ~stats ~w0 ~w1 ~ep01 ~ep10;
  Engine.run engine

let expect_ok (st : Ucx.status) =
  match st.error with
  | None -> ()
  | Some (Ucx.Truncated _) -> Alcotest.fail "unexpected truncation"
  | Some (Ucx.Callback_failed c) -> Alcotest.failf "callback failed: %d" c
  | Some (Ucx.Timeout { retries }) ->
      Alcotest.failf "unexpected timeout after %d retries" retries
  | Some (Ucx.Peer_failed { peer }) -> Alcotest.failf "peer %d failed" peer
  | Some Ucx.Data_corrupted -> Alcotest.fail "data corrupted"
  | Some Ucx.Revoked -> Alcotest.fail "unexpected revocation"

let test_contig_eager_roundtrip () =
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let src = pattern 1024 in
      let dst = Buf.create 1024 in
      Engine.spawn engine ~name:"sender" (fun () ->
          let req = Ucx.tag_send ep01 ~tag:7L (Ucx.Sd_contig src) in
          expect_ok (Ucx.wait req));
      Engine.spawn engine ~name:"receiver" (fun () ->
          let req = Ucx.tag_recv w1 ~tag:7L ~mask:(-1L) (Ucx.Rd_contig dst) in
          let st = Ucx.wait req in
          expect_ok st;
          check_int "len" 1024 st.len;
          Alcotest.(check bool) "payload" true (Buf.equal src dst)))

let test_contig_rndv_roundtrip () =
  with_pair (fun ~engine ~stats ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let n = 256 * 1024 in
      let src = pattern n in
      let dst = Buf.create n in
      Engine.spawn engine (fun () ->
          let req = Ucx.tag_send ep01 ~tag:1L (Ucx.Sd_contig src) in
          expect_ok (Ucx.wait req);
          (* sender completion implies transfer done *)
          Alcotest.(check bool) "rndv used" true (Stats.get stats Rndv_messages >= 1));
      Engine.spawn engine (fun () ->
          let req = Ucx.tag_recv w1 ~tag:1L ~mask:(-1L) (Ucx.Rd_contig dst) in
          expect_ok (Ucx.wait req);
          Alcotest.(check bool) "payload" true (Buf.equal src dst)))

let test_eager_sender_completes_locally () =
  (* Eager send completes even if the receive is posted much later. *)
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let src = pattern 64 in
      let dst = Buf.create 64 in
      let send_done_at = ref infinity in
      Engine.spawn engine (fun () ->
          let req = Ucx.tag_send ep01 ~tag:2L (Ucx.Sd_contig src) in
          expect_ok (Ucx.wait req);
          send_done_at := Engine.now engine);
      Engine.spawn engine (fun () ->
          Engine.sleep engine 1_000_000.;
          let req = Ucx.tag_recv w1 ~tag:2L ~mask:(-1L) (Ucx.Rd_contig dst) in
          expect_ok (Ucx.wait req);
          Alcotest.(check bool) "sender finished long before recv" true
            (!send_done_at < 100_000.);
          Alcotest.(check bool) "payload" true (Buf.equal src dst)))

let test_eager_snapshot_semantics () =
  (* After an eager send completes, the source buffer may be reused
     without corrupting the in-flight message. *)
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let src = pattern 128 in
      let expected = Buf.copy src in
      let dst = Buf.create 128 in
      Engine.spawn engine (fun () ->
          let req = Ucx.tag_send ep01 ~tag:3L (Ucx.Sd_contig src) in
          expect_ok (Ucx.wait req);
          Buf.fill src '\xee');
      Engine.spawn engine (fun () ->
          Engine.sleep engine 500_000.;
          let req = Ucx.tag_recv w1 ~tag:3L ~mask:(-1L) (Ucx.Rd_contig dst) in
          expect_ok (Ucx.wait req);
          Alcotest.(check bool) "original bytes delivered" true
            (Buf.equal expected dst)))

let test_iov_roundtrip () =
  with_pair (fun ~engine ~stats ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let r1 = pattern 100 and r2 = pattern 50 and r3 = pattern 7 in
      let d1 = Buf.create 100 and d2 = Buf.create 50 and d3 = Buf.create 7 in
      Engine.spawn engine (fun () ->
          let req = Ucx.tag_send ep01 ~tag:4L (Ucx.Sd_iov [ r1; r2; r3 ]) in
          expect_ok (Ucx.wait req);
          check_int "iov entries recorded" 3 (Stats.get stats Iov_entries));
      Engine.spawn engine (fun () ->
          let req =
            Ucx.tag_recv w1 ~tag:4L ~mask:(-1L) (Ucx.Rd_iov [ d1; d2; d3 ])
          in
          let st = Ucx.wait req in
          expect_ok st;
          check_int "len" 157 st.len;
          Alcotest.(check bool) "r1" true (Buf.equal r1 d1);
          Alcotest.(check bool) "r2" true (Buf.equal r2 d2);
          Alcotest.(check bool) "r3" true (Buf.equal r3 d3)))

let test_iov_to_contig_boundaries () =
  (* iov send received into one contiguous buffer: concatenation order *)
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let a = Buf.of_string "abc" and b = Buf.of_string "defgh" in
      let dst = Buf.create 8 in
      Engine.spawn engine (fun () ->
          expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:5L (Ucx.Sd_iov [ a; b ]))));
      Engine.spawn engine (fun () ->
          expect_ok
            (Ucx.wait (Ucx.tag_recv w1 ~tag:5L ~mask:(-1L) (Ucx.Rd_contig dst)));
          Alcotest.(check string) "concat" "abcdefgh" (Buf.to_string dst)))

let test_contig_to_iov_scatter () =
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let src = Buf.of_string "abcdefgh" in
      let d1 = Buf.create 3 and d2 = Buf.create 5 in
      Engine.spawn engine (fun () ->
          expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:5L (Ucx.Sd_contig src))));
      Engine.spawn engine (fun () ->
          expect_ok
            (Ucx.wait
               (Ucx.tag_recv w1 ~tag:5L ~mask:(-1L) (Ucx.Rd_iov [ d1; d2 ])));
          Alcotest.(check string) "d1" "abc" (Buf.to_string d1);
          Alcotest.(check string) "d2" "defgh" (Buf.to_string d2)))

(* A simple generic descriptor that reverses bytes on pack and
   re-reverses on unpack, to prove callbacks actually run. *)
let reversing_send src =
  let n = Buf.length src in
  Ucx.Sd_generic
    {
      sg_packed_size = n;
      sg_pack =
        (fun ~offset ~dst ->
          let len = min (Buf.length dst) (n - offset) in
          for i = 0 to len - 1 do
            Buf.set dst i (Buf.get src (n - 1 - (offset + i)))
          done;
          len);
      sg_finish = ignore;
      sg_overhead_ns = 0.;
    }

let reversing_recv dst =
  let n = Buf.length dst in
  Ucx.Rd_generic
    {
      rg_capacity = n;
      rg_unpack =
        (fun ~offset ~src ->
          for i = 0 to Buf.length src - 1 do
            Buf.set dst (n - 1 - (offset + i)) (Buf.get src i)
          done;
          Buf.length src);
      rg_finish = ignore;
      rg_overhead_ns = 0.;
    }

let run_generic_roundtrip n =
  with_pair (fun ~engine ~stats ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let src = pattern n in
      let dst = Buf.create n in
      Engine.spawn engine (fun () ->
          expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:6L (reversing_send src))));
      Engine.spawn engine (fun () ->
          let st = Ucx.wait (Ucx.tag_recv w1 ~tag:6L ~mask:(-1L) (reversing_recv dst)) in
          expect_ok st;
          check_int "len" n st.len;
          Alcotest.(check bool) "callbacks ran on both sides" true
            (Buf.equal src dst);
          Alcotest.(check bool) "pack callbacks counted" true
            (Stats.get stats Pack_callbacks >= 1);
          Alcotest.(check bool) "unpack callbacks counted" true
            (Stats.get stats Unpack_callbacks >= 1)))

let test_generic_eager () = run_generic_roundtrip 500

let test_generic_rndv_fragments () =
  (* 100 KiB > eager limit: pipelined pack over 8 KiB fragments. *)
  run_generic_roundtrip (100 * 1024)

let test_generic_to_contig () =
  (* Generic sender, contiguous receiver: the packed stream lands as-is. *)
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let src = Buf.of_string "hello" in
      let dst = Buf.create 5 in
      Engine.spawn engine (fun () ->
          expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:8L (reversing_send src))));
      Engine.spawn engine (fun () ->
          expect_ok
            (Ucx.wait (Ucx.tag_recv w1 ~tag:8L ~mask:(-1L) (Ucx.Rd_contig dst)));
          Alcotest.(check string) "packed (reversed) stream" "olleh"
            (Buf.to_string dst)))

(* A generic receiver that copies each fragment into place. *)
let copying_recv dst =
  Ucx.Rd_generic
    {
      rg_capacity = Buf.length dst;
      rg_unpack =
        (fun ~offset ~src ->
          Buf.blit ~src ~src_pos:0 ~dst ~dst_pos:offset ~len:(Buf.length src);
          Buf.length src);
      rg_finish = ignore;
      rg_overhead_ns = 0.;
    }

(* A 2-worker world under [plan] ([None]: fault-free); [f] gets the
   context too, for its slabs. *)
let with_ctx ?(config = Config.default) plan f =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let ctx = Ucx.create_context ~engine ~config ~stats in
  Ucx.set_faults ctx plan;
  let w0 = Ucx.create_worker ctx in
  let w1 = Ucx.create_worker ctx in
  f ~engine ~w0 ~w1 ~ep01:(Ucx.connect w0 w1) ~ep10:(Ucx.connect w1 w0);
  Engine.run engine;
  ctx

let check_ledger what ctx =
  let s = Ucx.slabs ctx in
  check_int (what ^ ": every carved slot free once quiet")
    (Buf.Slabs.carved_slots s) (Buf.Slabs.free_slots s)

(* A rendezvous reads contiguous and iov send buffers in place, with or
   without a plan, and never gives them to the slabs: were one given,
   the slab ledger would count a slot it never carved, and the generic
   sends that follow (at once, so that under a plan they hold slots
   together) would take it as a pack slot and write into it. *)
let test_rndv_user_buffers_never_reach_slabs () =
  let link = Config.default.link in
  let frag = link.frag_size in
  (* a frag_size contiguous message must take the rendezvous path *)
  let config =
    { Config.default with link = { link with eager_limit = frag / 2 } }
  in
  List.iter
    (fun (mode, plan) ->
      let contig = pattern frag in
      let iov = [ pattern frag; Buf.sub (pattern (frag + 3)) ~pos:3 ~len:frag ] in
      let iov_generic = [ pattern frag; pattern 5 ] in
      let generic = pattern (2 * frag) in
      let originals =
        List.map (fun b -> (b, Buf.copy b)) ((contig :: iov) @ iov_generic)
      in
      let d_contig = Buf.create frag and d_iov = Buf.create (2 * frag) in
      let d_iov_generic = Buf.create (frag + 5) in
      let d_generic = Buf.create (2 * frag) in
      let followers = [ frag; frag; frag; frag; 5 ] in
      let ctx =
        with_ctx ~config plan (fun ~engine ~w0:_ ~w1 ~ep01 ~ep10:_ ->
            Engine.spawn engine (fun () ->
                let send tag dt = expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag dt)) in
                send 1L (Ucx.Sd_contig contig);
                send 2L (Ucx.Sd_iov iov);
                send 3L (Ucx.Sd_iov iov_generic);
                send 4L (reversing_send generic);
                List.iter
                  (fun r -> expect_ok (Ucx.wait r))
                  (List.map
                     (fun n -> Ucx.tag_send ep01 ~tag:5L (reversing_send (pattern n)))
                     followers);
                List.iter
                  (fun (b, orig) ->
                    Alcotest.(check bool)
                      (mode ^ ": send buffer untouched")
                      true (Buf.equal b orig))
                  originals);
            Engine.spawn engine (fun () ->
                let recv tag dt =
                  expect_ok (Ucx.wait (Ucx.tag_recv w1 ~tag ~mask:(-1L) dt))
                in
                recv 1L (Ucx.Rd_contig d_contig);
                recv 2L (Ucx.Rd_contig d_iov);
                recv 3L (copying_recv d_iov_generic);
                recv 4L (reversing_recv d_generic);
                List.iter (fun n -> recv 5L (Ucx.Rd_contig (Buf.create n))) followers;
                Alcotest.(check bool) (mode ^ ": contig payload") true
                  (Buf.equal contig d_contig);
                Alcotest.(check bool) (mode ^ ": iov payload") true
                  (Buf.equal (Buf.concat iov) d_iov);
                Alcotest.(check bool) (mode ^ ": iov -> generic payload") true
                  (Buf.equal (Buf.concat iov_generic) d_iov_generic);
                Alcotest.(check bool) (mode ^ ": generic payload") true
                  (Buf.equal generic d_generic)))
      in
      check_ledger mode ctx)
    [ ("no plan", None); ("clean plan", Some (Fault.make ())) ]

(* A generic receiver that counts its [rg_finish] calls; the transport
   must make exactly one per matched receive, whatever the outcome. *)
let counting_recv ?(unpack = fun ~offset:_ ~src -> Buf.length src) capacity
    finishes =
  Ucx.Rd_generic
    {
      rg_capacity = capacity;
      rg_unpack = unpack;
      rg_finish = (fun () -> incr finishes);
      rg_overhead_ns = 0.;
    }

let test_truncation_eager () =
  let finishes = ref 0 in
  List.iter
    (fun recv_dt ->
      with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
          let src = pattern 100 in
          Engine.spawn engine (fun () ->
              expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:9L (Ucx.Sd_contig src))));
          Engine.spawn engine (fun () ->
              let st = Ucx.wait (Ucx.tag_recv w1 ~tag:9L ~mask:(-1L) recv_dt) in
              match st.error with
              | Some (Ucx.Truncated { expected; capacity }) ->
                  check_int "expected" 100 expected;
                  check_int "capacity" 50 capacity
              | _ -> Alcotest.fail "expected truncation error")))
    [ Ucx.Rd_contig (Buf.create 50); counting_recv 50 finishes ];
  check_int "rg_finish once" 1 !finishes

let test_truncation_rndv_completes_sender () =
  let finishes = ref 0 in
  List.iter
    (fun recv_dt ->
      with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
          let n = 64 * 1024 in
          let src = pattern n in
          Engine.spawn engine (fun () ->
              let st = Ucx.wait (Ucx.tag_send ep01 ~tag:9L (Ucx.Sd_contig src)) in
              (* sender sees success even though receiver truncated *)
              check_int "sender len" n st.len);
          Engine.spawn engine (fun () ->
              let st = Ucx.wait (Ucx.tag_recv w1 ~tag:9L ~mask:(-1L) recv_dt) in
              match st.error with
              | Some (Ucx.Truncated _) -> ()
              | _ -> Alcotest.fail "expected truncation error")))
    [ Ucx.Rd_contig (Buf.create 10); counting_recv 10 finishes ];
  check_int "rg_finish once" 1 !finishes

let test_pack_callback_error () =
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1:_ ~ep01 ~ep10:_ ->
      let failing =
        Ucx.Sd_generic
          {
            sg_packed_size = 100;
            sg_pack = (fun ~offset:_ ~dst:_ -> raise (Ucx.Callback_error 42));
            sg_finish = ignore;
            sg_overhead_ns = 0.;
          }
      in
      Engine.spawn engine (fun () ->
          let st = Ucx.wait (Ucx.tag_send ep01 ~tag:10L failing) in
          match st.error with
          | Some (Ucx.Callback_failed 42) -> ()
          | _ -> Alcotest.fail "expected callback failure"))

let test_unpack_callback_error () =
  let finishes = ref 0 in
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let src = pattern 100 in
      let failing =
        counting_recv
          ~unpack:(fun ~offset:_ ~src:_ -> raise (Ucx.Callback_error 7))
          100 finishes
      in
      Engine.spawn engine (fun () ->
          expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:11L (Ucx.Sd_contig src))));
      Engine.spawn engine (fun () ->
          let st = Ucx.wait (Ucx.tag_recv w1 ~tag:11L ~mask:(-1L) failing) in
          match st.error with
          | Some (Ucx.Callback_failed 7) -> ()
          | _ -> Alcotest.fail "expected callback failure"));
  check_int "rg_finish once" 1 !finishes

let test_tag_mask_matching () =
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let a = Buf.of_string "aa" and b = Buf.of_string "bb" in
      let d1 = Buf.create 2 and d2 = Buf.create 2 in
      Engine.spawn engine (fun () ->
          expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:0x1_0005L (Ucx.Sd_contig a)));
          expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:0x2_0005L (Ucx.Sd_contig b))));
      Engine.spawn engine (fun () ->
          (* Match only on the low 16 bits: first arrival wins. *)
          let st1 =
            Ucx.wait (Ucx.tag_recv w1 ~tag:5L ~mask:0xFFFFL (Ucx.Rd_contig d1))
          in
          check_int "first tag" 0x1_0005 st1.tag;
          (* Exact match on the second. *)
          let st2 =
            Ucx.wait (Ucx.tag_recv w1 ~tag:0x2_0005L ~mask:(-1L) (Ucx.Rd_contig d2))
          in
          check_int "second tag" 0x2_0005 st2.tag;
          Alcotest.(check string) "payloads" "aabb"
            (Buf.to_string d1 ^ Buf.to_string d2)))

let test_fifo_ordering_same_tag () =
  (* Two same-tag messages of very different sizes must match in send
     order even though the smaller one would naturally arrive first. *)
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let big = pattern 8192 in
      let small = Buf.of_string "x" in
      let d1 = Buf.create 8192 and d2 = Buf.create 8192 in
      Engine.spawn engine (fun () ->
          let r1 = Ucx.tag_send ep01 ~tag:1L (Ucx.Sd_contig big) in
          let r2 = Ucx.tag_send ep01 ~tag:1L (Ucx.Sd_contig small) in
          expect_ok (Ucx.wait r1);
          expect_ok (Ucx.wait r2));
      Engine.spawn engine (fun () ->
          let st1 = Ucx.wait (Ucx.tag_recv w1 ~tag:1L ~mask:(-1L) (Ucx.Rd_contig d1)) in
          let st2 = Ucx.wait (Ucx.tag_recv w1 ~tag:1L ~mask:(-1L) (Ucx.Rd_contig d2)) in
          check_int "first is the big one" 8192 st1.len;
          check_int "second is the small one" 1 st2.len))

let test_probe () =
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let src = pattern 300 in
      Engine.spawn engine (fun () ->
          expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:12L (Ucx.Sd_contig src))));
      Engine.spawn engine (fun () ->
          let info = Ucx.tag_probe_wait w1 ~tag:12 ~mask:(-1) in
          check_int "probe len" 300 info.p_len;
          check_int "probe src" 0 info.p_src_worker;
          (* envelope still queued: a normal recv gets it *)
          let dst = Buf.create 300 in
          expect_ok
            (Ucx.wait (Ucx.tag_recv w1 ~tag:12L ~mask:(-1L) (Ucx.Rd_contig dst)));
          Alcotest.(check bool) "payload" true (Buf.equal src dst)))

let test_probe_nonblocking_empty () =
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01:_ ~ep10:_ ->
      Engine.spawn engine (fun () ->
          Alcotest.(check bool) "no message" true
            (Ucx.tag_probe w1 ~tag:0 ~mask:(-1) = None)))

let test_mprobe_dequeues () =
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let src = pattern 40 in
      Engine.spawn engine (fun () ->
          expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:13L (Ucx.Sd_contig src))));
      Engine.spawn engine (fun () ->
          let info, msg = Ucx.tag_mprobe_wait w1 ~tag:13 ~mask:(-1) in
          check_int "len" 40 info.p_len;
          (* after mprobe the message is invisible to probe *)
          Alcotest.(check bool) "dequeued" true
            (Ucx.tag_probe w1 ~tag:13 ~mask:(-1) = None);
          let dst = Buf.create 40 in
          expect_ok (Ucx.wait (Ucx.msg_recv w1 msg (Ucx.Rd_contig dst)));
          Alcotest.(check bool) "payload" true (Buf.equal src dst)))

(* An arrival wakes every blocked probe it matches, in blocking order,
   then the oldest blocked mprobe it matches, which dequeues it.  A
   woken mprobe leaves the queue: the next arrival goes to the next. *)
let test_probe_wake_order () =
  let order = ref [] in
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let block name probe =
        Engine.spawn engine (fun () ->
            let len = probe () in
            order := (name, len) :: !order)
      in
      let take () = (fst (Ucx.tag_mprobe_wait w1 ~tag:7 ~mask:(-1))).Ucx.p_len in
      let peek () = (Ucx.tag_probe_wait w1 ~tag:7 ~mask:(-1)).Ucx.p_len in
      block "take1" take;
      block "peek1" peek;
      block "take2" take;
      block "peek2" peek;
      Engine.spawn engine (fun () ->
          Engine.sleep engine 10.;
          expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:7L (Ucx.Sd_contig (pattern 10))));
          Engine.sleep engine 1e5;
          expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:7L (Ucx.Sd_contig (pattern 20))))));
  Alcotest.(check (list (pair string int))) "wake order"
    [ ("peek1", 10); ("peek2", 10); ("take1", 10); ("take2", 20) ]
    (List.rev !order)

(* Minor words per blocked probe: [n] fibers block on distinct tags of
   one worker, then [n] eager sends wake them one at a time.  Blocking
   and waking cost the same at any queue depth. *)
let blocked_probe_words ~take n =
  let words = Array.make 2 0. in
  let src = pattern 8 in
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      words.(0) <- Gc.minor_words ();
      for tag = 0 to n - 1 do
        Engine.spawn engine (fun () ->
            if take then ignore (Ucx.tag_mprobe_wait w1 ~tag ~mask:(-1))
            else ignore (Ucx.tag_probe_wait w1 ~tag ~mask:(-1)))
      done;
      Engine.spawn engine (fun () ->
          for tag = 0 to n - 1 do
            expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:(Int64.of_int tag) (Ucx.Sd_contig src)))
          done));
  words.(1) <- Gc.minor_words ();
  (words.(1) -. words.(0)) /. float_of_int n

let test_blocked_probes_linear () =
  List.iter
    (fun (name, take) ->
      let small = blocked_probe_words ~take 512 and large = blocked_probe_words ~take 2048 in
      if large > 1.2 *. small then
        Alcotest.failf "%s: %.0f minor words per blocked probe at 2048, %.0f at 512" name
          large small)
    [ ("mprobe", true); ("probe", false) ]

let test_bidirectional () =
  with_pair (fun ~engine ~stats:_ ~w0 ~w1 ~ep01 ~ep10 ->
      let a = pattern 64 and b = pattern 64 in
      let da = Buf.create 64 and db = Buf.create 64 in
      Engine.spawn engine (fun () ->
          expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:1L (Ucx.Sd_contig a)));
          expect_ok (Ucx.wait (Ucx.tag_recv w0 ~tag:2L ~mask:(-1L) (Ucx.Rd_contig db))));
      Engine.spawn engine (fun () ->
          expect_ok (Ucx.wait (Ucx.tag_recv w1 ~tag:1L ~mask:(-1L) (Ucx.Rd_contig da)));
          expect_ok (Ucx.wait (Ucx.tag_send ep10 ~tag:2L (Ucx.Sd_contig b))));
      ignore (da, db))

(* --- timing-shape tests: the cost model must reproduce the paper's
   qualitative behaviours --- *)

let pingpong_time ?(config = Config.default) n make_send make_recv =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let ctx = Ucx.create_context ~engine ~config ~stats in
  let w0 = Ucx.create_worker ctx in
  let w1 = Ucx.create_worker ctx in
  let ep01 = Ucx.connect w0 w1 in
  let ep10 = Ucx.connect w1 w0 in
  let t = ref 0. in
  Engine.spawn engine (fun () ->
      let start = Engine.now engine in
      expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:1L (make_send n)));
      expect_ok (Ucx.wait (Ucx.tag_recv w0 ~tag:2L ~mask:(-1L) (make_recv n)));
      t := Engine.now engine -. start);
  Engine.spawn engine (fun () ->
      expect_ok (Ucx.wait (Ucx.tag_recv w1 ~tag:1L ~mask:(-1L) (make_recv n)));
      expect_ok (Ucx.wait (Ucx.tag_send ep10 ~tag:2L (make_send n))));
  Engine.run engine;
  !t

let contig_send n = Ucx.Sd_contig (pattern n)
let contig_recv n = Ucx.Rd_contig (Buf.create n)

let test_timing_monotone_in_size () =
  let t1 = pingpong_time 1024 contig_send contig_recv in
  let t2 = pingpong_time 8192 contig_send contig_recv in
  let t3 = pingpong_time (1024 * 1024) contig_send contig_recv in
  Alcotest.(check bool) "monotone" true (t1 < t2 && t2 < t3)

let test_timing_rndv_jump () =
  (* Crossing the eager limit must add a visible handshake cost. *)
  let limit = Config.default.link.eager_limit in
  let below = pingpong_time limit contig_send contig_recv in
  let above = pingpong_time (limit + 64) contig_send contig_recv in
  Alcotest.(check bool) "handshake jump" true (above -. below > 1000.)

let test_timing_iov_no_jump () =
  (* The iov path must NOT jump at the eager limit (paper Fig. 7). *)
  let iov_send n = Ucx.Sd_iov [ pattern n ] in
  let iov_recv n = Ucx.Rd_iov [ Buf.create n ] in
  let limit = Config.default.link.eager_limit in
  let below = pingpong_time limit iov_send iov_recv in
  let above = pingpong_time (limit + 64) iov_send iov_recv in
  Alcotest.(check bool) "no protocol jump" true
    (above -. below < Config.default.link.rndv_handshake_ns /. 2.)

let test_timing_iov_entry_overhead () =
  (* Same bytes, more regions -> more time (Fig. 1 small subvectors). *)
  let total = 64 * 1024 in
  let iov_of k n =
    let per = n / k in
    Ucx.Sd_iov (List.init k (fun _ -> pattern per))
  in
  let iov_recv_of k n =
    let per = n / k in
    Ucx.Rd_iov (List.init k (fun _ -> Buf.create per))
  in
  let few = pingpong_time total (iov_of 4) (iov_recv_of 4) in
  let many = pingpong_time total (iov_of 512) (iov_recv_of 512) in
  Alcotest.(check bool) "per-entry cost visible" true
    (many > few +. (400. *. Config.default.link.iov_entry_ns))

(* An unexpected eager message holds its buffered bytes until a receive
   matches it, and gives them back whether that receive lands the data
   or truncates it; a truncation completes at once. *)
let test_unexpected_alloc_accounting () =
  List.iter
    (fun capacity ->
      with_pair (fun ~engine ~stats ~w0:_ ~w1 ~ep01 ~ep10:_ ->
          let src = pattern 512 in
          Engine.spawn engine (fun () ->
              expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:1L (Ucx.Sd_contig src))));
          Engine.spawn engine (fun () ->
              Engine.sleep engine 1_000_000.;
              (* message arrived unexpected: buffered on the receiver *)
              check_int "buffered bytes" 512 stats.live_alloc_bytes;
              let dst = Ucx.Rd_contig (Buf.create capacity) in
              let st = Ucx.wait (Ucx.tag_recv w1 ~tag:1L ~mask:(-1L) dst) in
              (match st.error with
              | Some (Ucx.Truncated _) when capacity < 512 ->
                  Alcotest.(check (float 0.)) "truncation completes at once" 1_000_000.
                    (Engine.now engine)
              | _ -> expect_ok st);
              check_int
                (Printf.sprintf "%d B receive: buffer released" capacity)
                0 stats.live_alloc_bytes)))
    [ 512; 256 ]

let test_jitter_preserves_fifo () =
  (* With adversarial per-message jitter the per-channel FIFO guarantee
     must still hold: same-tag messages match in send order. *)
  let engine = Engine.create () in
  let stats = Stats.create () in
  let ctx = Ucx.create_context ~engine ~config:Config.default ~stats in
  let rng = Mpicd_simnet.Rng.create 99 in
  Ucx.set_channel_jitter ctx (Some (fun () -> Mpicd_simnet.Rng.float rng 5000.));
  let w0 = Ucx.create_worker ctx in
  let w1 = Ucx.create_worker ctx in
  let ep = Ucx.connect w0 w1 in
  let n = 20 in
  Engine.spawn engine (fun () ->
      for i = 0 to n - 1 do
        let b = Buf.create 4 in
        Buf.set_i32 b 0 (Int32.of_int i);
        expect_ok (Ucx.wait (Ucx.tag_send ep ~tag:5L (Ucx.Sd_contig b)))
      done);
  Engine.spawn engine (fun () ->
      for i = 0 to n - 1 do
        let d = Buf.create 4 in
        expect_ok (Ucx.wait (Ucx.tag_recv w1 ~tag:5L ~mask:(-1L) (Ucx.Rd_contig d)));
        check_int (Printf.sprintf "message %d in order" i) i
          (Int32.to_int (Buf.get_i32 d 0))
      done);
  Engine.run engine

let test_trace_records_protocols () =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let ctx = Ucx.create_context ~engine ~config:Config.default ~stats in
  let obs = Obs.create () in
  Ucx.set_obs ctx obs;
  let w0 = Ucx.create_worker ctx in
  let w1 = Ucx.create_worker ctx in
  let ep = Ucx.connect w0 w1 in
  Engine.spawn engine (fun () ->
      expect_ok (Ucx.wait (Ucx.tag_send ep ~tag:1L (Ucx.Sd_contig (pattern 64))));
      expect_ok
        (Ucx.wait (Ucx.tag_send ep ~tag:2L (Ucx.Sd_iov [ pattern 64 ]))));
  Engine.spawn engine (fun () ->
      expect_ok
        (Ucx.wait (Ucx.tag_recv w1 ~tag:1L ~mask:(-1L) (Ucx.Rd_contig (Buf.create 64))));
      expect_ok
        (Ucx.wait (Ucx.tag_recv w1 ~tag:2L ~mask:(-1L) (Ucx.Rd_iov [ Buf.create 64 ]))));
  Engine.run engine;
  (* The protocol decisions: the eager send (mseq 0) ships its data in
     one wire span; the iov send (mseq 1) ships an RTS, and its data
     moves in the rendezvous' own wire span. *)
  let spans name =
    List.filter (fun (sp : Obs.span) -> sp.Obs.cat = "proto" && sp.Obs.name = name)
      (Obs.spans obs)
  in
  let mseq args = match List.assoc_opt "mseq" args with Some (Obs.Int m) -> m | _ -> -1 in
  Alcotest.(check (list int)) "one rts span, the iov send's" [ 1 ]
    (List.map (fun (sp : Obs.span) -> mseq sp.Obs.args) (spans "rts"));
  Alcotest.(check (list int)) "one eager wire span, then the rendezvous'" [ 0; -1 ]
    (List.map (fun (sp : Obs.span) -> mseq sp.Obs.args) (spans "wire"));
  let matches =
    List.filter (fun (i : Obs.instant) -> i.Obs.i_name = "match") (Obs.instants obs)
  in
  (* times are monotone: messages match in send order, the RTS lands
     before its rendezvous starts, and no span ends before it starts *)
  Alcotest.(check (list int)) "two matches, in send order" [ 0; 1 ]
    (List.map (fun (i : Obs.instant) -> mseq i.Obs.i_args) matches);
  Alcotest.(check bool) "rts before rendezvous" true
    ((List.hd (spans "rts")).Obs.t1 <= (List.hd (spans "rndv")).Obs.t0);
  Alcotest.(check bool) "spans end after they start" true
    (List.for_all (fun (sp : Obs.span) -> sp.Obs.t0 <= sp.Obs.t1) (Obs.spans obs))

(* --- transport timing matrix ---

   Every data path of the transport, pinned to exact values: sender
   and receiver completion times (IEEE bits), copies, copied bytes and
   callback counts.  Rendezvous cases cross send {contig, iov(3),
   generic} with receive {contig, iov(2), generic} at a size above the
   eager limit that is not a multiple of [frag_size]; eager cases send
   contig and generic into contig and generic receivers.  Each runs
   with no plan, a clean plan, a sender straggler and, for iov ->
   contig, a targeted corruption that forces the packed-path fallback.
   A refactor of the transport must leave every row unchanged.  One
   known mode difference is pinned here: a fault-free contig/iov ->
   generic rendezvous unpacks in one callback, the reliable path in
   [frag_size] slices. *)

let matrix_rndv_bytes = 40_000
let matrix_eager_bytes = 1000

(* [b] cut into [k] consecutive slices, the last one taking the rest. *)
let slices k b =
  let n = Buf.length b in
  let per = n / k in
  List.init k (fun i ->
      let len = if i = k - 1 then n - (per * i) else per in
      Buf.sub b ~pos:(per * i) ~len)

let matrix_send kind src =
  let n = Buf.length src in
  match kind with
  | `Contig -> Ucx.Sd_contig src
  | `Iov -> Ucx.Sd_iov (slices 3 src)
  | `Generic ->
      Ucx.Sd_generic
        {
          sg_packed_size = n;
          sg_pack =
            (fun ~offset ~dst ->
              let len = min (Buf.length dst) (n - offset) in
              Buf.blit ~src ~src_pos:offset ~dst ~dst_pos:0 ~len;
              len);
          sg_finish = ignore;
          sg_overhead_ns = 250.;
        }

let matrix_recv kind dst =
  match kind with
  | `Contig -> Ucx.Rd_contig dst
  | `Iov -> Ucx.Rd_iov (slices 2 dst)
  | `Generic ->
      Ucx.Rd_generic
        {
          rg_capacity = Buf.length dst;
          rg_unpack =
            (fun ~offset ~src ->
              Buf.blit ~src ~src_pos:0 ~dst ~dst_pos:offset ~len:(Buf.length src);
              Buf.length src);
          rg_finish = ignore;
          rg_overhead_ns = 175.;
        }

let matrix_plan = function
  | `None -> None
  | `Clean -> Some (Fault.make ())
  | `Straggler -> Some (Fault.make ~stragglers:[ (0, 3.) ] ())
  | `Corrupt ->
      Some
        (Fault.make
           ~injections:
             [
               {
                 Fault.inj_kind = Fault.Inj_corrupt;
                 inj_src = 0;
                 inj_dst = 1;
                 inj_mseq = 0;
                 inj_frag = 0;
               };
             ]
           ())

(* One transfer 0 -> 1 with the receive posted first. *)
let matrix_run ~bytes ~send ~recv ~mode =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let ctx = Ucx.create_context ~engine ~config:Config.default ~stats in
  Ucx.set_faults ctx (matrix_plan mode);
  let w0 = Ucx.create_worker ctx in
  let w1 = Ucx.create_worker ctx in
  let src = pattern bytes in
  let dst = Buf.create bytes in
  let t_send = ref nan and t_recv = ref nan in
  Engine.spawn engine (fun () ->
      let st = Ucx.wait (Ucx.tag_recv w1 ~tag:1L ~mask:(-1L) (matrix_recv recv dst)) in
      expect_ok st;
      t_recv := Engine.now engine);
  Engine.spawn engine (fun () ->
      expect_ok (Ucx.wait (Ucx.tag_send (Ucx.connect w0 w1) ~tag:1L (matrix_send send src)));
      t_send := Engine.now engine);
  Engine.run engine;
  Alcotest.(check bool) "payload" true (Buf.equal src dst);
  if mode = `Corrupt then check_int "fell back once" 1 (Stats.get stats Iov_fallbacks);
  ( Int64.bits_of_float !t_send,
    Int64.bits_of_float !t_recv,
    Stats.get stats Memcpys,
    Stats.get stats Bytes_copied,
    Stats.get stats Pack_callbacks,
    Stats.get stats Unpack_callbacks )

let matrix_cases =
  let kind_name = function
    | `Contig -> "contig"
    | `Iov -> "iov"
    | `Generic -> "generic"
  in
  let mode_name = function
    | `None -> "none"
    | `Clean -> "clean"
    | `Straggler -> "straggler"
    | `Corrupt -> "corrupt"
  in
  let case proto bytes send recv mode =
    ( Printf.sprintf "%s %s->%s %s" proto (kind_name send) (kind_name recv)
        (mode_name mode),
      fun () -> matrix_run ~bytes ~send ~recv ~mode )
  in
  let modes = [ `None; `Clean; `Straggler ] in
  let cross proto bytes sends recvs =
    List.concat_map
      (fun s ->
        List.concat_map
          (fun r -> List.map (fun m -> case proto bytes s r m) modes)
          recvs)
      sends
  in
  cross "rndv" matrix_rndv_bytes [ `Contig; `Iov; `Generic ] [ `Contig; `Iov; `Generic ]
  @ [ case "rndv" matrix_rndv_bytes `Iov `Contig `Corrupt ]
  @ cross "eager" matrix_eager_bytes [ `Contig; `Generic ] [ `Contig; `Generic ]

(* name, sender done, receiver done, memcpys, bytes copied, pack
   callbacks, unpack callbacks *)
let matrix_expected =
  [
    ("rndv contig->contig none", 0x40c45f0000000000L, 0x40c45f0000000000L, 0, 0, 0, 0);
    ("rndv contig->contig clean", 0x40c972ffffffffffL, 0x40c6e8ffffffffffL, 0, 0, 0, 0);
    ("rndv contig->contig straggler", 0x40ca6cffffffffffL, 0x40c7e2ffffffffffL, 0, 0, 0, 0);
    ("rndv contig->iov none", 0x40c45f0000000000L, 0x40c45f0000000000L, 0, 0, 0, 0);
    ("rndv contig->iov clean", 0x40c972ffffffffffL, 0x40c6e8ffffffffffL, 0, 0, 0, 0);
    ("rndv contig->iov straggler", 0x40ca6cffffffffffL, 0x40c7e2ffffffffffL, 0, 0, 0, 0);
    ("rndv contig->generic none", 0x40c45f0000000000L, 0x40c45f0000000000L, 1, 40000, 0, 1);
    ("rndv contig->generic clean", 0x40ce7a7fffffffffL, 0x40cbf07fffffffffL, 1, 40000, 0, 5);
    ("rndv contig->generic straggler", 0x40cf747fffffffffL, 0x40ccea7fffffffffL, 1, 40000, 0, 5);
    ("rndv iov->contig none", 0x40c5130000000000L, 0x40c5130000000000L, 0, 0, 0, 0);
    ("rndv iov->contig clean", 0x40ca26ffffffffffL, 0x40c79cffffffffffL, 0, 0, 0, 0);
    ("rndv iov->contig straggler", 0x40cc88ffffffffffL, 0x40c9feffffffffffL, 0, 0, 0, 0);
    ("rndv iov->iov none", 0x40c5130000000000L, 0x40c5130000000000L, 0, 0, 0, 0);
    ("rndv iov->iov clean", 0x40ca26ffffffffffL, 0x40c79cffffffffffL, 0, 0, 0, 0);
    ("rndv iov->iov straggler", 0x40cc88ffffffffffL, 0x40c9feffffffffffL, 0, 0, 0, 0);
    ("rndv iov->generic none", 0x40c5130000000000L, 0x40c5130000000000L, 1, 40000, 0, 1);
    ("rndv iov->generic clean", 0x40cf2e7fffffffffL, 0x40cca47fffffffffL, 1, 40000, 0, 5);
    ("rndv iov->generic straggler", 0x40d0c84000000000L, 0x40cf067fffffffffL, 1, 40000, 0, 5);
    ("rndv generic->contig none", 0x40c461ae147ae148L, 0x40c461ae147ae148L, 1, 40000, 5, 0);
    ("rndv generic->contig clean", 0x40d020d70a3d70a4L, 0x40cdb7ae147ae147L, 1, 40000, 5, 0);
    ("rndv generic->contig straggler", 0x40d76c851eb851eeL, 0x40d627851eb851eeL, 1, 40000, 5, 0);
    ("rndv generic->iov none", 0x40c461ae147ae148L, 0x40c461ae147ae148L, 1, 40000, 5, 0);
    ("rndv generic->iov clean", 0x40d020d70a3d70a4L, 0x40cdb7ae147ae147L, 1, 40000, 5, 0);
    ("rndv generic->iov straggler", 0x40d76c851eb851eeL, 0x40d627851eb851eeL, 1, 40000, 5, 0);
    ("rndv generic->generic none", 0x40c461ae147ae148L, 0x40c461ae147ae148L, 2, 80000, 5, 5);
    ("rndv generic->generic clean", 0x40d2a4970a3d70a4L, 0x40d15f970a3d70a4L, 2, 80000, 5, 5);
    ("rndv generic->generic straggler", 0x40d9f0451eb851eeL, 0x40d8ab451eb851eeL, 2, 80000, 5, 5);
    ("rndv iov->contig corrupt", 0x40f2c3eb43958105L, 0x40f272ab43958105L, 1, 40000, 0, 0);
    ("eager contig->contig none", 0x406f400000000000L, 0x409a5c0000000000L, 1, 1000, 0, 0);
    ("eager contig->contig clean", 0x4099940000000000L, 0x409a5c0000000000L, 1, 1000, 0, 0);
    ("eager contig->contig straggler", 0x40a0b20000000000L, 0x40a1160000000000L, 1, 1000, 0, 0);
    ("eager contig->generic none", 0x406f400000000000L, 0x409e580000000000L, 1, 1000, 0, 1);
    ("eager contig->generic clean", 0x4099940000000000L, 0x409e580000000000L, 1, 1000, 0, 1);
    ("eager contig->generic straggler", 0x40a0b20000000000L, 0x40a3140000000000L, 1, 1000, 0, 1);
    ("eager generic->contig none", 0x408bd00000000000L, 0x40a22e0000000000L, 2, 2000, 1, 0);
    ("eager generic->contig clean", 0x40a1ca0000000000L, 0x40a22e0000000000L, 2, 2000, 1, 0);
    ("eager generic->contig straggler", 0x40afb20000000000L, 0x40b00b0000000000L, 2, 2000, 1, 0);
    ("eager generic->generic none", 0x408bd00000000000L, 0x40a42c0000000000L, 2, 2000, 1, 1);
    ("eager generic->generic clean", 0x40a1ca0000000000L, 0x40a42c0000000000L, 2, 2000, 1, 1);
    ("eager generic->generic straggler", 0x40afb20000000000L, 0x40b10a0000000000L, 2, 2000, 1, 1);
  ]

let test_timing_matrix () =
  let row (name, (ts, tr, m, b, p, u)) =
    Printf.sprintf "(%S, 0x%LxL, 0x%LxL, %d, %d, %d, %d);" name ts tr m b p u
  in
  let actual = List.map (fun (name, run) -> (name, run ())) matrix_cases in
  let expected =
    List.map (fun (n, ts, tr, m, b, p, u) -> (n, (ts, tr, m, b, p, u))) matrix_expected
  in
  let wrong = List.filter (fun r -> not (List.mem r expected)) actual in
  if wrong <> [] || List.length expected <> List.length actual then
    Alcotest.failf "timing matrix moved; actual rows that differ:\n%s"
      (String.concat "\n" (List.map row wrong))

(* CRC32 (IEEE 802.3, reflected, as used by the wire checksums) against
   the published check value and a couple of structural identities. *)
let test_crc32_vectors () =
  let module Crc32 = Mpicd_ucx.Crc32 in
  let check_crc msg expected buf =
    Alcotest.(check int32) msg expected (Crc32.digest buf)
  in
  check_crc "check value" 0xCBF43926l (Buf.of_string "123456789");
  check_crc "empty" 0l (Buf.create 0);
  check_crc "single zero byte" 0xD202EF8Dl (Buf.of_string "\x00");
  check_crc "ascii a" 0xE8B7BE43l (Buf.of_string "a");
  let big = pattern (1 lsl 20) in
  let d = Crc32.digest big in
  Alcotest.(check int32) "1 MiB pattern stable" d (Crc32.digest big);
  Alcotest.(check int32) "digest_sub full range" d
    (Crc32.digest_sub big ~pos:0 ~len:(Buf.length big));
  let nine = Buf.of_string "xx123456789yy" in
  Alcotest.(check int32) "digest_sub window" 0xCBF43926l
    (Crc32.digest_sub nine ~pos:2 ~len:9);
  Alcotest.(check bool) "prefix digest differs" true
    (Crc32.digest_sub big ~pos:0 ~len:(1 lsl 19) <> d)

(* Ranges that do not fit raise instead of digesting nothing — including
   [pos] near [max_int], where [pos + len] overflows to a negative sum. *)
let test_crc32_bad_ranges_raise () =
  let module Crc32 = Mpicd_ucx.Crc32 in
  let b = Buf.of_string "123456789" in
  List.iter
    (fun (what, pos, len) ->
      match Crc32.digest_sub b ~pos ~len with
      | exception Invalid_argument _ -> ()
      | _ ->
          Alcotest.failf "%s (pos %d, len %d): expected Invalid_argument" what
            pos len)
    [
      ("negative length", 0, -1);
      ("negative position", -1, 2);
      ("near max_int", max_int, 2);
      ("near max_int", max_int - 1, 9);
      ("past the end", 8, 2);
    ];
  Alcotest.(check int32) "empty slice at the end is fine" 0l
    (Crc32.digest_sub b ~pos:9 ~len:0)

(* Eager snapshots live in storage the transport recycles: eight
   messages in flight at once from one reused source buffer each keep
   their own bytes, and so does a second batch on recycled storage. *)
let test_eager_snapshots_in_flight () =
  with_pair (fun ~engine ~stats:_ ~w0:_ ~w1 ~ep01 ~ep10:_ ->
      let src = Buf.create 100 in
      Engine.spawn engine (fun () ->
          for k = 0 to 15 do
            Buf.fill src (Char.chr (65 + k));
            expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:(Int64.of_int k) (Ucx.Sd_contig src)));
            if k = 7 then Engine.sleep engine 1e6
          done);
      Engine.spawn engine (fun () ->
          Engine.sleep engine 5e5;
          for k = 0 to 15 do
            let dst = Buf.create 100 in
            expect_ok
              (Ucx.wait (Ucx.tag_recv w1 ~tag:(Int64.of_int k) ~mask:(-1L) (Ucx.Rd_contig dst)));
            Alcotest.(check string)
              (Printf.sprintf "message %d" k)
              (String.make 100 (Char.chr (65 + k)))
              (Buf.to_string dst)
          done))

(* A generic descriptor packing [src] as it is. *)
let copying_send src =
  Ucx.Sd_generic
    {
      sg_packed_size = Buf.length src;
      sg_pack =
        (fun ~offset ~dst ->
          let n = min (Buf.length dst) (Buf.length src - offset) in
          Buf.blit ~src ~src_pos:offset ~dst ~dst_pos:0 ~len:n;
          n);
      sg_finish = ignore;
      sg_overhead_ns = 0.;
    }

(* Messages 0 -> 1 under [plan], all in flight at once: message [k] is
   [len] bytes of ['A' + k], sent contiguous from one reused source
   buffer or, with [generic], packed from a source of its own.  The
   receiver starts [recv_after] ns later and receives them in order,
   [recv k] giving message [k]'s descriptor and the check of its
   status; with a late start every message waits in the unexpected
   queue.  Returns the transport slabs' carved and free slots once the
   world is quiet, and the stats. *)
let snapshot_run ?(msgs = 8) ?(len = 1000) ?(generic = false) ~recv_after ~recv plan =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let ctx = Ucx.create_context ~engine ~config:Config.default ~stats in
  Ucx.set_faults ctx plan;
  let w0 = Ucx.create_worker ctx in
  let w1 = Ucx.create_worker ctx in
  let ep = Ucx.connect w0 w1 in
  Engine.spawn engine (fun () ->
      let shared = Buf.create len in
      let reqs = ref [] in
      for k = 0 to msgs - 1 do
        let src = if generic then Buf.create len else shared in
        Buf.fill src (Char.chr (65 + k));
        let dt = if generic then copying_send src else Ucx.Sd_contig src in
        reqs := Ucx.tag_send ep ~tag:(Int64.of_int k) dt :: !reqs
      done;
      List.iter (fun r -> ignore (Ucx.wait r)) !reqs);
  Engine.spawn engine (fun () ->
      Engine.sleep engine recv_after;
      for k = 0 to msgs - 1 do
        let dt, check = recv k in
        check (Ucx.wait (Ucx.tag_recv w1 ~tag:(Int64.of_int k) ~mask:(-1L) dt))
      done);
  Engine.run engine;
  let s = Ucx.slabs ctx in
  (Buf.Slabs.carved_slots s, Buf.Slabs.free_slots s, stats)

(* Message [k] lands whole. *)
let lands len k =
  let dst = Buf.create len in
  ( Ucx.Rd_contig dst,
    fun st ->
      expect_ok st;
      Alcotest.(check string)
        (Printf.sprintf "message %d" k)
        (String.make len (Char.chr (65 + k)))
        (Buf.to_string dst) )

(* The receive completes with an error [pred] accepts. *)
let fails_with what pred (st : Ucx.status) =
  match st.error with
  | Some e when pred e -> ()
  | _ -> Alcotest.failf "%s: expected the receive to fail" what

(* Every slot a message carves goes back exactly once, whatever its
   fate, with or without a plan: an eager contig send's snapshot, and a
   generic send's pack, eager or rendezvous.  Fewer free than carved
   slots is a leak; more is a slot given back twice.  The receivers
   check each message's bytes, so a slot given back while its message
   still waits to land (and retaken by the next send) shows as a wrong
   payload. *)
let test_snapshot_slots_given_back () =
  let lossy =
    Fault.make ~seed:3 ~max_retries:30 ~rto_ns:5_000.
      ~link:{ Fault.clean_link with drop_p = 0.2; corrupt_p = 0.2; dup_p = 0.3 }
      ()
  in
  let dead_link =
    Fault.make ~max_retries:2 ~rto_ns:1_000.
      ~link:{ Fault.clean_link with drop_p = 1. } ()
  in
  let failing_unpack len _ =
    let raises ~offset:_ ~src:_ = raise (Ucx.Callback_error 7) in
    ( counting_recv ~unpack:raises len (ref 0),
      fails_with "unpack" (function Ucx.Callback_failed 7 -> true | _ -> false) )
  in
  let truncated _ =
    ( Ucx.Rd_contig (Buf.create 500),
      fails_with "truncation" (function Ucx.Truncated _ -> true | _ -> false) )
  in
  let timed_out _ =
    ( Ucx.Rd_contig (Buf.create 1000),
      fails_with "timeout" (function Ucx.Timeout _ -> true | _ -> false) )
  in
  let faults (s : Stats.t) =
    Stats.get s Retransmits > 0
    && Stats.get s Frags_duplicated > 0
    && Stats.get s Frags_corrupted > 0
  in
  let any _ = true in
  let both =
    [
      ("no plan", None, 1000, lands 1000, any);
      ("clean plan", Some (Fault.make ()), 1000, lands 1000, any);
      ("clean plan, three fragments", Some (Fault.make ()), 20_000, lands 20_000, any);
      ("drop, dup and corrupt fates", Some lossy, 20_000, lands 20_000, faults);
      ("truncated, no plan", None, 1000, truncated, any);
      ("truncated, clean plan", Some (Fault.make ()), 1000, truncated, any);
      ("unpack fails, no plan", None, 1000, failing_unpack 1000, any);
      ("unpack fails, lossy plan", Some lossy, 1000, failing_unpack 1000, faults);
      ( "retries run out", Some dead_link, 1000, timed_out,
        fun (s : Stats.t) -> Stats.get s Delivery_timeouts = 8 );
    ]
  in
  (* a rendezvous packs at match time, so only a matched one carves *)
  let rendezvous =
    [
      ("rendezvous, no plan", None, 40_000, lands 40_000, any);
      ("rendezvous, clean plan", Some (Fault.make ()), 40_000, lands 40_000, any);
      ("rendezvous, drop, dup and corrupt fates", Some lossy, 40_000, lands 40_000, faults);
      ("rendezvous unpack fails, no plan", None, 40_000, failing_unpack 40_000, any);
      ("rendezvous unpack fails, lossy plan", Some lossy, 40_000, failing_unpack 40_000, faults);
    ]
  in
  List.iter
    (fun (send, generic, cases) ->
      List.iter
        (fun (what, plan, len, recv, fates) ->
          List.iter
            (fun recv_after ->
              let carved, free, stats =
                snapshot_run ~len ~generic ~recv_after ~recv plan
              in
              let what =
                Printf.sprintf "%s %s, receiver after %.0f ns" send what recv_after
              in
              if carved = 0 then Alcotest.failf "%s: no slot carved" what;
              check_int (what ^ ": every carved slot free once quiet") carved free;
              Alcotest.(check bool) (what ^ ": the plan's fates happened") true
                (fates stats))
            [ 0.; 1e7 ])
        cases)
    [ ("contig", false, both); ("generic", true, both @ rendezvous) ]

(* Messages 0 -> 1 one at a time under [plan], each acknowledged by an
   empty message: the slots the transport carved and the fresh buffers
   allocated while [msgs] of them went. *)
let message_costs plan ~msgs send_dt recv_dt =
  let ack = Buf.create 0 in
  let fresh = ref 0 in
  let ctx =
    with_ctx plan (fun ~engine ~w0 ~w1 ~ep01 ~ep10 ->
        fresh := Buf.fresh_buffers ();
        Engine.spawn engine (fun () ->
            for _ = 1 to msgs do
              expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:1L send_dt));
              expect_ok (Ucx.wait (Ucx.tag_recv w0 ~tag:2L ~mask:(-1L) (Ucx.Rd_contig ack)))
            done);
        Engine.spawn engine (fun () ->
            for _ = 1 to msgs do
              expect_ok (Ucx.wait (Ucx.tag_recv w1 ~tag:1L ~mask:(-1L) recv_dt));
              expect_ok (Ucx.wait (Ucx.tag_send ep10 ~tag:2L (Ucx.Sd_contig ack)))
            done))
  in
  (Buf.Slabs.carved_slots (Ucx.slabs ctx), Buf.fresh_buffers () - !fresh)

(* A message allocates the same with or without a plan: no fresh buffer
   on any path, at 10 messages as at 20, and one reused slot for a
   generic pack or a gather; an iov sender is gathered only for a
   generic receiver. *)
let test_message_costs () =
  let n = 65_536 in
  let iov () = Ucx.Sd_iov [ pattern (n / 2); pattern (n / 2) ] in
  let rows =
    [
      ("generic eager 1000 B", reversing_send (pattern 1000), reversing_recv (Buf.create 1000), 1);
      ( "generic eager 20,000 B", reversing_send (pattern 20_000),
        reversing_recv (Buf.create 20_000), 1 );
      ("contig rendezvous 64 KiB", Ucx.Sd_contig (pattern n), Ucx.Rd_contig (Buf.create n), 0);
      ("generic rendezvous 64 KiB", reversing_send (pattern n), reversing_recv (Buf.create n), 1);
      ("iov rendezvous 64 KiB", iov (), Ucx.Rd_contig (Buf.create n), 0);
      ("iov -> generic 64 KiB", iov (), copying_recv (Buf.create n), 1);
    ]
  in
  List.iter
    (fun (row, send_dt, recv_dt, slots) ->
      List.iter
        (fun (mode, plan) ->
          List.iter
            (fun msgs ->
              let carved, fresh = message_costs plan ~msgs send_dt recv_dt in
              let what = Printf.sprintf "%s, %s, %d messages" row mode msgs in
              check_int (what ^ ": slots carved") slots carved;
              check_int (what ^ ": fresh buffers") 0 fresh)
            [ 10; 20 ])
        [ ("no plan", None); ("clean plan", Some (Fault.make ())) ])
    rows

(* An iov send under a plan whose fragment 1 is corrupted on every
   first try: the iovec DMA path lets the corruption through unchecked,
   so the transfer falls back once to the checksummed path, where the
   corruption is caught and the fragment retransmitted once.  The
   receiver lands the sender's bytes, the sender's buffers keep theirs,
   and no slot is taken. *)
let test_unchecked_corruption_falls_back () =
  let n = 20_000 in
  let engine = Engine.create () in
  let stats = Stats.create () in
  let ctx = Ucx.create_context ~engine ~config:Config.default ~stats in
  Ucx.set_faults ctx
    (Some
       (Fault.make
          ~injections:
            [
              { Fault.inj_kind = Fault.Inj_corrupt; inj_src = 0; inj_dst = 1; inj_mseq = 0;
                inj_frag = 1 };
            ]
          ()));
  let w0 = Ucx.create_worker ctx in
  let w1 = Ucx.create_worker ctx in
  let halves = [ pattern (n / 2); pattern (n / 2) ] in
  let dst = Buf.create n in
  Engine.spawn engine (fun () ->
      expect_ok (Ucx.wait (Ucx.tag_send (Ucx.connect w0 w1) ~tag:1L (Ucx.Sd_iov halves))));
  Engine.spawn engine (fun () ->
      expect_ok (Ucx.wait (Ucx.tag_recv w1 ~tag:1L ~mask:(-1L) (Ucx.Rd_contig dst))));
  Engine.run engine;
  check_int "two corruptions" 2 (Stats.get stats Frags_corrupted);
  check_int "one fallback" 1 (Stats.get stats Iov_fallbacks);
  check_int "one retransmit" 1 (Stats.get stats Retransmits);
  Alcotest.(check bool) "sender's buffers untouched" true
    (List.for_all (fun b -> Buf.equal b (pattern (n / 2))) halves);
  List.iteri
    (fun i b ->
      Alcotest.(check bool) (Printf.sprintf "half %d landed" i) true
        (Buf.equal (Buf.sub dst ~pos:(i * n / 2) ~len:(n / 2)) b))
    halves;
  check_int "no slot taken" 0 (Buf.Slabs.carved_slots (Ucx.slabs ctx))

(* Minor words per message of a warmed-up 2-worker ping-pong: a
   deterministic count per transport path, not a timing.  The ceilings
   sit above the counts (127, 151, 153, 152, 136 and 236).  An [Sd_iov]
   or [Rd_iov] list costs 8 words per post to convert; "iov regions"
   posts the converted form, as the MPI layer does. *)
let pingpong_words send_dt recv_dt =
  let n = 50 in
  let words = Array.make 2 0. in
  with_pair (fun ~engine ~stats:_ ~w0 ~w1 ~ep01 ~ep10 ->
      Engine.spawn engine (fun () ->
          for i = 1 to 2 * n do
            if i = n + 1 then words.(0) <- Gc.minor_words ();
            expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:1L send_dt));
            expect_ok (Ucx.wait (Ucx.tag_recv w0 ~tag:2L ~mask:(-1L) recv_dt))
          done;
          words.(1) <- Gc.minor_words ());
      Engine.spawn engine (fun () ->
          for _ = 1 to 2 * n do
            expect_ok (Ucx.wait (Ucx.tag_recv w1 ~tag:1L ~mask:(-1L) recv_dt));
            expect_ok (Ucx.wait (Ucx.tag_send ep10 ~tag:2L send_dt))
          done));
  (words.(1) -. words.(0)) /. float_of_int (2 * n)

let test_pingpong_words () =
  let rndv = 65_536 in
  let iov n = Ucx.Sd_iov [ pattern (n / 2); pattern (n / 2) ] in
  let iov_recv n = Ucx.Rd_iov [ Buf.create (n / 2); Buf.create (n / 2) ] in
  List.iter
    (fun (path, send_dt, recv_dt, ceiling) ->
      let w = pingpong_words send_dt recv_dt in
      if w > ceiling then
        Alcotest.failf "%s: %.1f minor words per message, ceiling %.0f" path w ceiling)
    [
      ("eager contig", Ucx.Sd_contig (pattern 64), Ucx.Rd_contig (Buf.create 64), 130.);
      ("eager generic", reversing_send (pattern 64), reversing_recv (Buf.create 64), 159.);
      ("rendezvous contig", Ucx.Sd_contig (pattern rndv), Ucx.Rd_contig (Buf.create rndv), 160.);
      ("iov", iov 64, iov_recv 64, 154.);
      ( "iov regions",
        Ucx.Sd_regions (Buf.Iov.of_list [ pattern 32; pattern 32 ]),
        Ucx.Rd_regions (Buf.Iov.of_list [ Buf.create 32; Buf.create 32 ]),
        138. );
      ("rendezvous generic", reversing_send (pattern rndv), reversing_recv (Buf.create rndv), 280.);
    ]

(* The bitwise CRC-32 that the slicing-by-8 digest must agree with:
   one byte, then eight shifts, per step, and no table. *)
let crc32_reference b ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Buf.get_u8 b i;
    for _ = 1 to 8 do
      crc := if !crc land 1 <> 0 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
    done
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

(* Any view offset, slice start and length from 0 to 4 KiB: the word
   loop, its byte tail and the unaligned loads all agree. *)
let prop_crc32_matches_reference =
  QCheck.Test.make ~count:300 ~name:"crc32: slicing-by-8 = bitwise reference"
    QCheck.(quad (int_bound 7) (int_bound 9) (int_bound 9) (string_of_size Gen.(0 -- 4096)))
    (fun (view_off, pos, tail, s) ->
      let n = String.length s in
      let parent = Buf.create (n + 8) in
      Buf.blit_from_string s ~src_pos:0 ~dst:parent ~dst_pos:view_off ~len:n;
      let view = Buf.sub parent ~pos:view_off ~len:n in
      let pos = min pos n in
      let len = max 0 (n - pos - tail) in
      Mpicd_ucx.Crc32.digest_sub view ~pos ~len = crc32_reference view ~pos ~len)

(* The checked-corruption path nacks a corrupt fragment without
   digesting it: that relies on every single-bit flip of a fragment of
   up to [frag_size] bytes changing its CRC32.  Each case flips the
   fragment's first and last bit and 32 drawn ones, one at a time. *)
let prop_crc32_detects_bit_flips =
  QCheck.Test.make ~count:200 ~name:"crc32: every single-bit flip changes the digest"
    QCheck.(
      triple
        (string_of_size Gen.(1 -- Config.default_link.Config.frag_size))
        (int_bound 4)
        (list_of_size (Gen.return 32) (int_bound 0xffff)))
    (fun (s, view_off, drawn) ->
      let n = String.length s in
      let parent = Buf.create (n + 4) in
      Buf.blit_from_string s ~src_pos:0 ~dst:parent ~dst_pos:view_off ~len:n;
      let frag = Buf.sub parent ~pos:view_off ~len:n in
      let sent = Mpicd_ucx.Crc32.digest frag in
      let flip i = Buf.set_u8 frag (i / 8) (Buf.get_u8 frag (i / 8) lxor (1 lsl (i mod 8))) in
      List.for_all
        (fun i ->
          flip i;
          let changed = Mpicd_ucx.Crc32.digest frag <> sent in
          flip i;
          changed)
        (0 :: ((8 * n) - 1) :: List.map (fun i -> i mod (8 * n)) drawn))

(* Any sender into an iov receiver of any shape: each receive region
   gets its slice of the concatenated send stream.  The receive shape
   repeats the first [shared] regions of an iov send's shape, then cuts
   the rest at random points (zero-length regions included), so the
   walk copies equal-length pairs and crosses boundaries, with and
   without a fault plan, eager and rendezvous. *)
let prop_iov_scatter_shapes =
  QCheck.Test.make ~count:150 ~name:"ucx: iov receive of any shape = concat and split"
    QCheck.(
      quad
        (list_of_size Gen.(1 -- 6) (int_bound 4000))
        (int_bound 6) (int_bound 1_000_000)
        (pair (oneofl [ `Contig; `Iov; `Generic ]) bool))
    (fun (lens, shared, seed, (kind, plan)) ->
      let sum = List.fold_left ( + ) 0 in
      let total = sum lens in
      let prefix = List.filteri (fun i _ -> i < shared) lens in
      let st = Random.State.make [| seed |] in
      let rec cut rest k =
        if k = 1 then [ rest ]
        else
          let n = Random.State.int st (rest + 1) in
          n :: cut (rest - n) (k - 1)
      in
      let rlens = prefix @ cut (total - sum prefix) (1 + Random.State.int st 4) in
      let whole = pattern total in
      let views b ls =
        let pos = ref 0 in
        List.map
          (fun len ->
            let v = Buf.sub b ~pos:!pos ~len in
            pos := !pos + len;
            v)
          ls
      in
      let send =
        match kind with
        | `Iov -> Ucx.Sd_iov (views whole lens)
        | (`Contig | `Generic) as k -> matrix_send k whole
      in
      let regions = List.map Buf.create rlens in
      let engine = Engine.create () in
      let stats = Stats.create () in
      let ctx = Ucx.create_context ~engine ~config:Config.default ~stats in
      Ucx.set_faults ctx (if plan then Some (Fault.make ()) else None);
      let w0 = Ucx.create_worker ctx in
      let w1 = Ucx.create_worker ctx in
      let ep01 = Ucx.connect w0 w1 in
      Engine.spawn engine (fun () ->
          expect_ok (Ucx.wait (Ucx.tag_send ep01 ~tag:1L send)));
      Engine.spawn engine (fun () ->
          expect_ok
            (Ucx.wait (Ucx.tag_recv w1 ~tag:1L ~mask:(-1L) (Ucx.Rd_iov regions))));
      Engine.run engine;
      List.for_all2 Buf.equal regions (views whole rlens))

let suite =
  let tc = Alcotest.test_case in
  ( "ucx",
    [
      tc "crc32 published vectors" `Quick test_crc32_vectors;
      tc "crc32 bad ranges raise" `Quick test_crc32_bad_ranges_raise;
      tc "contig eager roundtrip" `Quick test_contig_eager_roundtrip;
      tc "contig rndv roundtrip" `Quick test_contig_rndv_roundtrip;
      tc "eager completes locally" `Quick test_eager_sender_completes_locally;
      tc "eager snapshot semantics" `Quick test_eager_snapshot_semantics;
      tc "iov roundtrip" `Quick test_iov_roundtrip;
      tc "iov->contig boundaries" `Quick test_iov_to_contig_boundaries;
      tc "contig->iov scatter" `Quick test_contig_to_iov_scatter;
      tc "generic eager callbacks" `Quick test_generic_eager;
      tc "generic rndv fragments" `Quick test_generic_rndv_fragments;
      tc "generic->contig packed stream" `Quick test_generic_to_contig;
      tc "rndv user buffers never reach the slabs" `Quick
        test_rndv_user_buffers_never_reach_slabs;
      tc "truncation (eager)" `Quick test_truncation_eager;
      tc "truncation (rndv) sender ok" `Quick test_truncation_rndv_completes_sender;
      tc "pack callback error" `Quick test_pack_callback_error;
      tc "unpack callback error" `Quick test_unpack_callback_error;
      tc "tag mask matching" `Quick test_tag_mask_matching;
      tc "fifo ordering same tag" `Quick test_fifo_ordering_same_tag;
      tc "probe" `Quick test_probe;
      tc "probe nonblocking empty" `Quick test_probe_nonblocking_empty;
      tc "mprobe dequeues" `Quick test_mprobe_dequeues;
      tc "probe wake order" `Quick test_probe_wake_order;
      tc "blocked probes linear" `Quick test_blocked_probes_linear;
      tc "bidirectional" `Quick test_bidirectional;
      tc "timing monotone in size" `Quick test_timing_monotone_in_size;
      tc "timing rndv jump at eager limit" `Quick test_timing_rndv_jump;
      tc "timing iov has no protocol jump" `Quick test_timing_iov_no_jump;
      tc "timing iov per-entry overhead" `Quick test_timing_iov_entry_overhead;
      tc "unexpected message alloc accounting" `Quick test_unexpected_alloc_accounting;
      tc "jitter preserves per-channel FIFO" `Quick test_jitter_preserves_fifo;
      tc "trace records protocol events" `Quick test_trace_records_protocols;
      tc "timing matrix pinned" `Quick test_timing_matrix;
      QCheck_alcotest.to_alcotest prop_crc32_matches_reference;
      QCheck_alcotest.to_alcotest prop_iov_scatter_shapes;
      QCheck_alcotest.to_alcotest prop_crc32_detects_bit_flips;
      tc "eager snapshots in flight stay distinct" `Quick test_eager_snapshots_in_flight;
      tc "snapshot slots given back once" `Quick test_snapshot_slots_given_back;
      tc "a message allocates the same with or without a plan" `Quick test_message_costs;
      tc "unchecked corruption falls back once" `Quick
        test_unchecked_corruption_falls_back;
      tc "ping-pong minor words per message" `Quick test_pingpong_words;
    ] )
