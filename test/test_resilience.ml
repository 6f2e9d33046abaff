(* Tests for ULFM-style process-failure resilience: the heartbeat
   failure detector, failure-triggered cancellation, comm_revoke /
   comm_agree / comm_shrink, fault-tolerant collectives, and the
   exactly-once release of custom-datatype callback state on aborted
   operations.  See docs/RESILIENCE.md. *)

module Buf = Mpicd_buf.Buf
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Fault = Mpicd_simnet.Fault
module Ucx = Mpicd_ucx.Ucx
module Mpi = Mpicd.Mpi
module Custom = Mpicd.Custom
module Coll = Mpicd_collectives.Collectives

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 0.))

let crash_plan ?(extra = "") ~rank ~at () =
  let s = Printf.sprintf "crash=%d@%g,hb=100000%s" rank at extra in
  match Fault.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan %S: %s" s e

(* --- failure detector: bounded declaration latency --- *)

let test_detector_latency () =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let ctx = Ucx.create_context ~engine ~config:Config.default ~stats in
  ignore (Ucx.create_worker ctx);
  ignore (Ucx.create_worker ctx);
  let declared = ref [] in
  Ucx.on_failure ctx (fun ~rank ~time -> declared := (rank, time) :: !declared);
  Ucx.set_faults ctx (Some (crash_plan ~rank:1 ~at:50_000. ()));
  Engine.run engine;
  (match !declared with
  | [ (1, t) ] ->
      (* first heartbeat boundary after the crash, plus two latencies *)
      check_float "declaration instant" 102_600. t;
      check_bool "within the documented bound" true
        (t <= 50_000. +. 100_000. +. (2. *. Config.default.Config.link.latency_ns))
  | l -> Alcotest.failf "expected one declaration, got %d" (List.length l));
  check_bool "is_failed" true (Ucx.is_failed ctx ~rank:1);
  check_bool "any_failures" true (Ucx.any_failures ctx);
  check_bool "failed_ranks" true (Ucx.failed_ranks ctx = [ 1 ]);
  check_int "counted in stats" 1 (Stats.get stats Failures_detected)

(* --- crash mid-collective: every rank terminates, none hangs --- *)

let test_crash_mid_barrier_terminates () =
  let w = Mpi.create_world ~size:3 () in
  Mpi.set_faults w (Some (crash_plan ~rank:1 ~at:30_000. ()));
  let completed = Array.make 3 0 in
  let errs = Array.make 3 None in
  Mpi.run w (fun comm ->
      let me = Mpi.rank comm in
      try
        for _ = 1 to 200 do
          Coll.barrier comm;
          completed.(me) <- completed.(me) + 1
        done
      with Mpi.Mpi_error e -> errs.(me) <- Some e);
  for r = 0 to 2 do
    check_bool
      (Printf.sprintf "rank %d stopped before finishing the loop" r)
      true
      (completed.(r) < 200);
    match errs.(r) with
    | Some (Mpi.Peer_failed _) | Some (Mpi.Revoked) -> ()
    | Some e ->
        Alcotest.failf "rank %d: unexpected error %s" r
          (match e with
          | Mpi.Timeout _ -> "Timeout"
          | Mpi.Data_corrupted -> "Data_corrupted"
          | _ -> "?")
    | None -> Alcotest.failf "rank %d finished a barrier loop across a crash" r
  done;
  (* the communicator is poisoned: the next collective fails fast *)
  let fast = ref false in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        match Coll.barrier comm with
        | () -> ()
        | exception Mpi.Mpi_error (Mpi.Peer_failed _) -> fast := true);
  check_bool "subsequent collective fails fast" true !fast;
  check_bool "operations were cancelled" true
    ((Stats.get (Mpi.world_stats w) Ops_cancelled) > 0)

(* [allreduce_f64] stages through a buffer its rank keeps between
   calls.  A clean call hands it back, and it is zeroed when lent
   again; a failed call does not, even when the error handler lets it
   return, since a transfer it abandoned may still write into it. *)
let test_allreduce_staging_kept_only_when_clean () =
  let w = Mpi.create_world ~size:3 () in
  Mpi.set_faults w (Some (crash_plan ~rank:1 ~at:30_000. ()));
  let reused = ref 0 and zeroed = ref true and dropped = ref false in
  Mpi.run w (fun comm ->
      Mpi.set_errhandler comm Mpi.Errors_return;
      let data = Array.make 9 1. in
      let lent () = Mpi.Internal.staging comm 72 in
      let last = ref (lent ()) and k = ref 0 in
      while !k < 200 && Mpi.last_error comm = None do
        incr k;
        Buf.fill !last '\255';
        Mpi.Internal.keep_staging comm !last;
        Coll.allreduce_f64 comm ~op:`Sum data;
        let b = lent () in
        if Mpi.rank comm = 0 then
          if Mpi.last_error comm = None then begin
            if b == !last then incr reused
          end
          else dropped := b != !last;
        for i = 0 to 71 do
          if Buf.get b i <> '\000' then zeroed := false
        done;
        last := b
      done);
  check_bool "clean calls ran before the crash" true (!reused > 0);
  check_bool "a kept buffer is lent zeroed" true !zeroed;
  check_bool "the failed call kept nothing" true !dropped

(* --- comm_revoke: pending and future operations fail fast --- *)

let test_revoke () =
  let w = Mpi.create_world ~size:2 () in
  let engine = Mpi.world_engine w in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        let r = Mpi.irecv comm ~source:1 ~tag:9 (Mpi.Bytes (Buf.create 64)) in
        check_bool "not yet revoked" false (Mpi.comm_revoked comm);
        Mpi.comm_revoke comm;
        check_bool "revoked locally" true (Mpi.comm_revoked comm);
        (match Mpi.wait r with
        | _ -> Alcotest.fail "pending recv survived a revocation"
        | exception Mpi.Mpi_error Mpi.Revoked -> ());
        match Mpi.send comm ~dst:1 ~tag:10 (Mpi.Bytes (Buf.create 8)) with
        | () -> Alcotest.fail "post-revoke send succeeded"
        | exception Mpi.Mpi_error Mpi.Revoked -> ()
      end
      else begin
        (* one link latency later the peer has seen the revocation too *)
        Engine.sleep engine 10_000.;
        check_bool "peer sees the revocation" true (Mpi.comm_revoked comm);
        match Mpi.send comm ~dst:0 ~tag:11 (Mpi.Bytes (Buf.create 8)) with
        | () -> Alcotest.fail "peer send on a revoked communicator succeeded"
        | exception Mpi.Mpi_error Mpi.Revoked -> ()
      end);
  let s = Mpi.world_stats w in
  check_int "one revocation" 1 (Stats.get s Comm_revokes);
  check_int "the pending recv was cancelled" 1 (Stats.get s Ops_cancelled)

(* A rank's registered-operation list is pruned of completed entries
   once it holds more than 64.  Rank 0 completes 100 receives, leaves
   one pending, then completes 100 more (pruning around the pending
   one): revocation must still find and cancel it. *)
let test_revoke_after_pruning () =
  let w = Mpi.create_world ~size:2 () in
  let msg () = Mpi.Bytes (Buf.create 8) in
  let batch comm ~first =
    List.init 100 (fun i -> Mpi.irecv comm ~source:1 ~tag:(first + i) (msg ()))
  in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        List.iter (fun r -> ignore (Mpi.wait r)) (batch comm ~first:1);
        let pending = Mpi.irecv comm ~source:1 ~tag:999 (msg ()) in
        let second = batch comm ~first:101 in
        Mpi.send comm ~dst:1 ~tag:500 (msg ());
        List.iter (fun r -> ignore (Mpi.wait r)) second;
        Mpi.comm_revoke comm;
        match Mpi.wait pending with
        | _ -> Alcotest.fail "pending recv survived a revocation"
        | exception Mpi.Mpi_error Mpi.Revoked -> ()
      end
      else begin
        for tag = 1 to 100 do
          Mpi.send comm ~dst:0 ~tag (msg ())
        done;
        ignore (Mpi.recv comm ~source:0 ~tag:500 (msg ()));
        for tag = 101 to 200 do
          Mpi.send comm ~dst:0 ~tag (msg ())
        done
      end);
  check_int "only the pending recv was cancelled" 1
    (Stats.get (Mpi.world_stats w) Ops_cancelled)

(* The cancellation registry holds pending operations, not history: on
   a healthy 64-rank world, 200 allreduce rounds leave every rank with
   at most 8 entries (the floor of the prune point), where a registry
   pruned only past a fixed 64 would keep dozens of completed ones. *)
let test_registry_bounded () =
  let ranks = 64 in
  let w = Mpi.create_world ~size:ranks () in
  let held = Array.make ranks (-1) and peak = Array.make ranks 0 in
  Mpi.run w (fun comm ->
      let me = Mpi.rank comm in
      let data = Array.make 9 1. in
      for _ = 1 to 200 do
        Coll.allreduce_f64 comm ~op:`Sum data;
        peak.(me) <- max peak.(me) (Mpi.Internal.registered_ops comm)
      done;
      held.(me) <- Mpi.Internal.registered_ops comm);
  Array.iteri
    (fun r n ->
      if n < 0 || n > 8 then Alcotest.failf "rank %d holds %d entries" r n;
      if peak.(r) > 8 then
        Alcotest.failf "rank %d peaked at %d entries" r peak.(r))
    held

(* A prune must keep every pending entry.  Each ping-pong round
   registers a receive on both ranks that is pending when posted and
   completes within the round, so the registry prunes every few posts.
   Receives posted after 120 and 180 such rounds must survive the
   prunes that follow and both be cancelled by a revocation, newest
   first: two fibers blocked on them wake in cancellation order. *)
let test_revoke_after_many_completed () =
  let w = Mpi.create_world ~size:2 () in
  let engine = Mpi.world_engine w in
  let msg () = Mpi.Bytes (Buf.create 8) in
  let during = ref 0 and woke = ref [] in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        let rounds first last =
          for tag = first to last do
            let r = Mpi.irecv comm ~source:1 ~tag (msg ()) in
            Mpi.send comm ~dst:1 ~tag (msg ());
            ignore (Mpi.wait r)
          done
        in
        rounds 1 120;
        let older = Mpi.irecv comm ~source:1 ~tag:999 (msg ()) in
        rounds 121 180;
        let newer = Mpi.irecv comm ~source:1 ~tag:998 (msg ()) in
        rounds 181 240;
        List.iter
          (fun (name, r) ->
            Engine.spawn engine (fun () ->
                (match Mpi.wait r with
                | _ -> ()
                | exception Mpi.Mpi_error Mpi.Revoked -> ());
                woke := name :: !woke))
          [ ("older", older); ("newer", newer) ];
        Engine.sleep engine 0. (* both waiters block *);
        during := Mpi.Internal.registered_ops comm;
        Mpi.comm_revoke comm;
        List.iter
          (fun r ->
            match Mpi.wait r with
            | _ -> Alcotest.fail "pending recv survived a revocation"
            | exception Mpi.Mpi_error Mpi.Revoked -> ())
          [ older; newer ]
      end
      else
        for tag = 1 to 240 do
          ignore (Mpi.recv comm ~source:0 ~tag (msg ()));
          Mpi.send comm ~dst:0 ~tag (msg ())
        done);
  if !during < 2 || !during > 8 then
    Alcotest.failf "registry held %d entries with two pending" !during;
  check_int "only the pending recvs were cancelled" 2
    (Stats.get (Mpi.world_stats w) Ops_cancelled);
  Alcotest.(check (list string)) "cancelled newest first" [ "newer"; "older" ]
    (List.rev !woke)

(* --- comm_agree: failure mid-agreement, acknowledgement --- *)

let test_agree_with_failure () =
  let w = Mpi.create_world ~size:3 () in
  let engine = Mpi.world_engine w in
  Mpi.set_faults w (Some (crash_plan ~rank:2 ~at:10_000. ()));
  Mpi.run w (fun comm ->
      Mpi.set_errhandler comm Mpi.Errors_return;
      let me = Mpi.rank comm in
      if me = 2 then begin
        (* sleep past our own declared death, then try to participate:
           a presumed-dead caller raises immediately *)
        Engine.sleep engine 200_000.;
        match Mpi.comm_agree comm ~flags:1 with
        | _ -> Alcotest.fail "a dead rank joined an agreement"
        | exception Mpi.Mpi_error (Mpi.Peer_failed { peer }) ->
            check_int "reported itself" 2 peer
      end
      else begin
        let flags = if me = 0 then 0b11 else 0b01 in
        let v = Mpi.comm_agree comm ~flags in
        check_int "AND of the live contributions" 1 v;
        (* rank 2 failed without contributing and nobody acked it *)
        (match Mpi.last_error comm with
        | Some (Mpi.Peer_failed { peer }) ->
            check_int "unacked failure reported" 2 peer
        | _ -> Alcotest.fail "expected a stashed Peer_failed");
        Mpi.clear_last_error comm;
        check_bool "failure listed" true (Mpi.failed_ranks comm = [ 2 ]);
        Mpi.comm_failure_ack comm;
        check_bool "acknowledged" true (Mpi.comm_get_acked comm = [ 2 ]);
        (* with the failure acknowledged by every live rank, agreement
           completes silently (ULFM MPI_Comm_agree semantics) *)
        let v = Mpi.comm_agree comm ~flags:1 in
        check_int "second agreement value" 1 v;
        check_bool "no error this time" true (Mpi.last_error comm = None)
      end);
  check_int "two agreements" 2 (Stats.get (Mpi.world_stats w) Comm_agreements)

(* --- comm_shrink + resilient allreduce on the survivors --- *)

let test_resilient_allreduce_shrink () =
  let n = 4 in
  let floats = 4096 (* 32 KiB: the rendezvous path *) in
  let w = Mpi.create_world ~size:n () in
  Mpi.set_faults w (Some (crash_plan ~rank:2 ~at:20_000. ()));
  let shrinks = Array.make n (-1) in
  let groups = Array.make n [] in
  let sums = Array.make n 0. in
  let died = ref false in
  Mpi.run w (fun comm ->
      let me = Mpi.rank comm in
      let data = Array.make floats (float_of_int (me + 1)) in
      match Coll.resilient_allreduce_f64 comm ~op:`Sum data with
      | comm', k ->
          shrinks.(me) <- k;
          groups.(me) <-
            List.init (Mpi.size comm') (Mpi.world_rank_of comm');
          sums.(me) <- data.(0);
          Array.iter
            (fun v -> if v <> data.(0) then Alcotest.fail "ragged result")
            data
      | exception Mpi.Mpi_error (Mpi.Peer_failed _) ->
          check_int "only the crashed rank gives up" 2 me;
          died := true);
  check_bool "the crashed rank gave up" true !died;
  List.iter
    (fun r ->
      check_int (Printf.sprintf "rank %d shrank once" r) 1 shrinks.(r);
      check_bool
        (Printf.sprintf "rank %d group excludes the dead rank" r)
        true
        (groups.(r) = [ 0; 1; 3 ]);
      (* 1 + 2 + 4: the reduction over the survivors *)
      check_float (Printf.sprintf "rank %d sum" r) 7. sums.(r))
    [ 0; 1; 3 ];
  let s = Mpi.world_stats w in
  check_int "one revoke" 1 (Stats.get s Comm_revokes);
  check_int "one shrink" 1 (Stats.get s Comm_shrinks);
  check_bool "failure detected" true (Stats.get s Failures_detected >= 1)

(* --- the communicator-id space: 64 ids per world, never reclaimed ---

   The world communicator holds id 0 and every shrink takes the next
   one, so a shrink loop fails on its 64th shrink even when nothing
   ever fails (docs/RESILIENCE.md, "Communicator ids"). *)

let test_cid_space_exhausts () =
  let w = Mpi.create_world ~size:2 () in
  let shrinks = Array.make 2 0 in
  match
    Mpi.run w (fun comm ->
        let me = Mpi.rank comm in
        let c = ref comm in
        while true do
          c := Mpi.comm_shrink !c;
          shrinks.(me) <- shrinks.(me) + 1
        done)
  with
  | () -> Alcotest.fail "an endless shrink loop returned"
  | exception Failure msg ->
      Alcotest.(check string)
        "failure" "Mpi: communicator id space exhausted" msg;
      check_int "rank 0 shrinks before the ids run out" 63 shrinks.(0);
      check_int "rank 1 shrinks before the ids run out" 63 shrinks.(1)

(* --- custom-datatype state is released exactly once on abort --- *)

let counting_dt created freed : Buf.t Custom.t =
  Custom.create
    {
      Custom.state = (fun _ ~count:_ -> incr created);
      state_free = (fun () -> incr freed);
      query = (fun () b ~count:_ -> Buf.length b);
      pack =
        (fun () b ~count:_ ~offset ~dst ->
          let len = min (Buf.length dst) (Buf.length b - offset) in
          Buf.blit ~src:b ~src_pos:offset ~dst ~dst_pos:0 ~len;
          len);
      unpack = (fun () _ ~count:_ ~offset:_ ~src:_ -> ());
      region_count = None;
      regions = None;
    }

let test_rndv_abort_frees_state_once () =
  (* a rendezvous-sized generic send whose handshake times out because
     the peer never posts: the withdrawn rendezvous state must release
     the pack callbacks' state exactly once (the leak this guards
     against: the timeout path dropped the envelope without finishing
     the datatype) *)
  let plan =
    match Fault.of_string "rndv_timeout=10000" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let w = Mpi.create_world ~size:2 () in
  Mpi.set_faults w (Some plan);
  let created = ref 0 and freed = ref 0 in
  let dt = counting_dt created freed in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        let obj = Buf.create (128 * 1024) in
        match Mpi.send comm ~dst:1 ~tag:1 (Mpi.Custom { dt; obj; count = 1 }) with
        | () -> Alcotest.fail "unmatched rendezvous send completed"
        | exception Mpi.Mpi_error (Mpi.Timeout _) -> ());
  check_int "state allocated once" 1 !created;
  check_int "state freed exactly once" 1 !freed

let test_failed_wait_replays_once () =
  (* waiting twice on a failed request replays the same error without
     re-running cleanup (the double-finalize this guards against) *)
  let plan =
    match Fault.of_string "drop=1.0,retries=1,rto=1000" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let w = Mpi.create_world ~size:2 () in
  Mpi.set_faults w (Some plan);
  let created = ref 0 and freed = ref 0 in
  let dt = counting_dt created freed in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        let obj = Buf.create 512 in
        let r = Mpi.isend comm ~dst:1 ~tag:1 (Mpi.Custom { dt; obj; count = 1 }) in
        (match Mpi.wait r with
        | _ -> Alcotest.fail "send survived a 100% lossy link"
        | exception Mpi.Mpi_error (Mpi.Timeout _) -> ());
        match Mpi.wait r with
        | _ -> Alcotest.fail "second wait returned success"
        | exception Mpi.Mpi_error (Mpi.Timeout _) -> ()
      end);
  check_int "state allocated once" 1 !created;
  check_int "state freed exactly once despite two waits" 1 !freed;
  (* [Custom.finish] is idempotent, so count the layer's own cleanup:
     its bounce buffer is freed once *)
  check_int "bounce buffer freed once" 0 (Mpi.world_stats w).live_alloc_bytes

(* The same on success: a second wait on a finished custom receive
   returns the same status without unpacking or freeing again. *)
let test_second_wait_replays_once () =
  let created = ref 0 and freed = ref 0 in
  let dt = counting_dt created freed in
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      let obj = Buf.create 512 in
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:1 (Mpi.Custom { dt; obj; count = 1 })
      else begin
        let r = Mpi.irecv comm ~source:0 ~tag:1 (Mpi.Custom { dt; obj; count = 1 }) in
        let st = Mpi.wait r in
        let unpacks = Stats.get (Mpi.world_stats w) Unpack_callbacks in
        Alcotest.(check bool) "same status" true (Mpi.wait r = st);
        check_int "no second unpack" unpacks (Stats.get (Mpi.world_stats w) Unpack_callbacks)
      end);
  check_int "states freed once each" 2 !freed;
  check_int "bounce buffers freed once each" 0 (Mpi.world_stats w).live_alloc_bytes

let suite =
  let tc = Alcotest.test_case in
  ( "resilience",
    [
      tc "detector declares within the bound" `Quick test_detector_latency;
      tc "crash mid-barrier: all ranks terminate" `Quick
        test_crash_mid_barrier_terminates;
      tc "allreduce keeps its staging only after a clean call" `Quick
        test_allreduce_staging_kept_only_when_clean;
      tc "revoke interrupts pending and future ops" `Quick test_revoke;
      tc "revoke finds a pending op after pruning" `Quick
        test_revoke_after_pruning;
      tc "registry holds pending ops only" `Quick test_registry_bounded;
      tc "revoke cancels a recv posted after 100+ completed ops" `Quick
        test_revoke_after_many_completed;
      tc "agree survives mid-agreement failure" `Quick test_agree_with_failure;
      tc "shrink + resilient allreduce" `Quick test_resilient_allreduce_shrink;
      tc "communicator ids run out after 63 shrinks" `Quick
        test_cid_space_exhausts;
      tc "rndv abort frees custom state once" `Quick
        test_rndv_abort_frees_state_once;
      tc "failed wait replays, cleanup runs once" `Quick
        test_failed_wait_replays_once;
      tc "second wait replays, cleanup runs once" `Quick
        test_second_wait_replays_once;
    ] )
