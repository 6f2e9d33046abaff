(* Tests for the checkpoint/restart layer: plan-serialized snapshots
   (byte-identical to the wire pack, fail-closed decoding), the
   in-memory store, logged point-to-point with duplicate suppression
   and replay verification, coordinated epoch commits, and both
   recovery paths (in-world shrink via [run_protected], cross-world
   respawn via [run_job]).  See docs/RESILIENCE.md. *)

module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Fault = Mpicd_simnet.Fault
module Obs = Mpicd_obs.Obs
module Mpi = Mpicd.Mpi
module Kernel = Mpicd_ddtbench.Kernel
module Registry = Mpicd_ddtbench.Registry
module Snapshot = Mpicd_restart.Snapshot
module Store = Mpicd_restart.Store
module Restart = Mpicd_restart.Restart

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let pattern = Dt_gen.pattern

(* Typed-source length covering [count] elements of [t]. *)
let src_len t ~count = max 1 (Dt.ub t + ((count - 1) * Dt.extent t))

let crash_plan ~rank ~at ~hb =
  let s = Printf.sprintf "crash=%d@%g,hb=%g" rank at hb in
  match Fault.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan %S: %s" s e

(* --- the store --- *)

let test_store_basics () =
  let s = Store.create () in
  check_bool "fresh store is empty" true (Store.files s = 0);
  let b = pattern 16 in
  Store.write s "j/a" b;
  Buf.fill b '\000';
  (* the write copied, so damaging the caller's buffer changes nothing *)
  let r = Option.get (Store.read s "j/a") in
  check_bool "write copies" true (Buf.equal r (pattern 16));
  Buf.fill r '\000';
  check_bool "read copies" true
    (Buf.equal (Option.get (Store.read s "j/a")) (pattern 16));
  Store.write s "j/c" (pattern 4);
  Store.write s "j/b" (pattern 8);
  Store.write s "k/a" (pattern 2);
  check_bool "list is prefix-filtered and sorted" true
    (Store.list s ~prefix:"j/" = [ "j/a"; "j/b"; "j/c" ]);
  check_int "total bytes" 30 (Store.total_bytes s);
  Store.write s "j/a" (pattern 4);
  check_int "overwrite replaces" 18 (Store.total_bytes s);
  Store.delete s "j/b";
  Store.delete s "j/b";
  (* second delete is a no-op *)
  check_bool "deleted" false (Store.mem s "j/b");
  Store.truncate s "j/a" ~len:2;
  check_int "truncated" 2 (Buf.length (Option.get (Store.read s "j/a")));
  Store.corrupt_bit s "j/a" ~pos:0 ~bit:3;
  let expect_u8 = Buf.get_u8 (pattern 2) 0 lxor 8 in
  check_int "bit flipped" expect_u8 (Buf.get_u8 (Option.get (Store.read s "j/a")) 0);
  (match Store.truncate s "gone" ~len:0 with
  | () -> Alcotest.fail "truncate on a missing path must raise"
  | exception Not_found -> ());
  Store.clear s;
  check_int "cleared" 0 (Store.files s)

(* --- type-signature digests --- *)

let test_signature_crc () =
  (* signature-equal layouts built differently digest identically *)
  let a = Dt.contiguous 4 Dt.int32 in
  let b = Dt.vector ~count:4 ~blocklength:1 ~stride:3 Dt.int32 in
  let c = Dt.struct_ ~blocklengths:[| 2; 2 |] ~displacements_bytes:[| 0; 32 |]
      ~types:[| Dt.int32; Dt.int32 |]
  in
  check_bool "contig = vector" true
    (Snapshot.signature_crc a = Snapshot.signature_crc b);
  check_bool "contig = struct" true
    (Snapshot.signature_crc a = Snapshot.signature_crc c);
  check_bool "int32 <> float32" false
    (Snapshot.signature_crc a = Snapshot.signature_crc (Dt.contiguous 4 Dt.float32));
  check_bool "4 <> 5 elements" false
    (Snapshot.signature_crc a = Snapshot.signature_crc (Dt.contiguous 5 Dt.int32))

(* --- snapshot round-trip (qcheck over random datatype trees) ---

   The checkpoint payload must be byte-for-byte what a wire transfer of
   the same (datatype, count) would carry, and decoding must restore
   every typed byte. *)

let prop_snapshot_roundtrip =
  QCheck.Test.make ~count:200 ~name:"restore (checkpoint buf) = buf"
    QCheck.(pair Dt_gen.arb (int_range 1 3))
    (fun (dt, count) ->
      let len = src_len dt ~count in
      let src = pattern len in
      let img =
        Snapshot.encode ~epoch:3 ~rank:1 ~cid:7 ~dt ~count ~src ()
      in
      (* the image is the header plus the packed stream, nothing more *)
      if Buf.length img <> Snapshot.header_size + Dt.packed_size dt ~count
      then QCheck.Test.fail_report "image is not header + packed size";
      (* so a strided layout's gaps are elided: the image is smaller
         than the extent footprint a layout-blind checkpoint persists *)
      let strided = Dt.vector ~count:256 ~blocklength:4 ~stride:8 Dt.float64 in
      let footprint = src_len strided ~count in
      let strided_img =
        Snapshot.encode ~epoch:3 ~rank:1 ~cid:7 ~dt:strided ~count
          ~src:(Buf.create footprint) ()
      in
      if Buf.length strided_img >= footprint then
        QCheck.Test.fail_report "strided image not below its footprint";
      (* payload = wire pack bytes *)
      let wire = Buf.create (Dt.packed_size dt ~count) in
      ignore (Dt.pack dt ~count ~src ~dst:wire : int);
      let payload =
        Buf.sub img ~pos:Snapshot.header_size
          ~len:(Buf.length img - Snapshot.header_size)
      in
      if not (Buf.equal payload wire) then
        QCheck.Test.fail_report "payload differs from wire pack";
      (* decode restores every typed byte *)
      let dst = Buf.create len in
      (match Snapshot.decode ~dt ~count ~dst img with
      | Error e ->
          QCheck.Test.fail_report
            ("decode failed: " ^ Snapshot.error_to_string e)
      | Ok m ->
          if m.Snapshot.epoch <> 3 || m.Snapshot.rank <> 1 || m.Snapshot.cid <> 7
             || m.Snapshot.count <> count
          then QCheck.Test.fail_report "meta fields damaged");
      let repacked = Buf.create (Dt.packed_size dt ~count) in
      ignore (Dt.pack dt ~count ~src:dst ~dst:repacked : int);
      Buf.equal repacked wire)

let test_snapshot_ddtbench () =
  List.iter
    (fun (kernel : Kernel.kernel) ->
      let (module K : Kernel.KERNEL) = kernel in
      let slab = K.create () in
      let img =
        Snapshot.encode ~epoch:0 ~rank:0 ~cid:0 ~dt:K.derived ~count:1
          ~src:slab ()
      in
      let sink = K.create_sink () in
      ignore (Snapshot.decode_exn ~dt:K.derived ~count:1 ~dst:sink img
        : Snapshot.meta);
      check_bool (K.name ^ " restores exchange-covered bytes") true
        (K.equal slab sink))
    Registry.all

(* --- fail-closed decoding --- *)

let test_fail_closed () =
  let dt =
    Dt.struct_ ~blocklengths:[| 3; 1 |] ~displacements_bytes:[| 0; 16 |]
      ~types:[| Dt.int32; Dt.float64 |]
  in
  let count = 2 in
  let src = pattern (src_len dt ~count) in
  let img = Snapshot.encode ~epoch:1 ~rank:0 ~cid:9 ~dt ~count ~src () in
  let copy () = Buf.copy img in
  let expect name b ~dt ~count err =
    let dst = Buf.create (src_len dt ~count) in
    Buf.fill dst '\xAA';
    (match Snapshot.decode ~dt ~count ~dst b with
    | Ok _ -> Alcotest.failf "%s: decode accepted a damaged snapshot" name
    | Error e ->
        if e <> err then
          Alcotest.failf "%s: expected %s, got %s" name
            (Snapshot.error_to_string err)
            (Snapshot.error_to_string e));
    (* fail-closed: the destination must be untouched *)
    for i = 0 to Buf.length dst - 1 do
      if Buf.get_u8 dst i <> 0xAA then
        Alcotest.failf "%s: destination scribbled at byte %d" name i
    done
  in
  let payload_len = Buf.length img - Snapshot.header_size in
  expect "too short" (Buf.sub img ~pos:0 ~len:32) ~dt ~count
    (Snapshot.Too_short { need = Snapshot.header_size; got = 32 });
  let b = copy () in
  Buf.set_u8 b 0 (Buf.get_u8 b 0 lxor 0xFF);
  (match Snapshot.decode ~dt ~count ~dst:(Buf.create 64) b with
  | Error (Snapshot.Bad_magic _) -> ()
  | _ -> Alcotest.fail "magic damage undetected");
  let b = copy () in
  Buf.set_i32 b 4 2l;
  expect "version" b ~dt ~count (Snapshot.Bad_version 2);
  let b = copy () in
  Buf.set_u8 b 9 (Buf.get_u8 b 9 lxor 1);
  expect "header field damage" b ~dt ~count Snapshot.Header_crc_mismatch;
  expect "truncated payload"
    (Buf.sub img ~pos:0 ~len:(Buf.length img - 1))
    ~dt ~count
    (Snapshot.Truncated_payload { expected = payload_len; got = payload_len - 1 });
  let b = copy () in
  Buf.set_u8 b (Snapshot.header_size + 2)
    (Buf.get_u8 b (Snapshot.header_size + 2) lxor 4);
  expect "payload bit rot" b ~dt ~count Snapshot.Payload_crc_mismatch;
  let other = Dt.contiguous 5 Dt.float32 in
  expect "wrong datatype" (copy ()) ~dt:other ~count
    (Snapshot.Signature_mismatch
       { stored = Snapshot.signature_crc dt;
         expected = Snapshot.signature_crc other });
  expect "wrong count" (copy ()) ~dt ~count:(count + 1)
    (Snapshot.Count_mismatch { stored = count; expected = count + 1 });
  (* a CRC-consistent header that lies about the payload length *)
  let module Crc32 = Mpicd_ucx.Crc32 in
  let b = copy () in
  let lie = payload_len - 8 in
  Buf.set_i64 b 48 (Int64.of_int lie);
  Buf.set_i32 b 56 (Crc32.digest_sub b ~pos:Snapshot.header_size ~len:lie);
  Buf.set_i32 b 60 (Crc32.digest_sub b ~pos:0 ~len:60);
  expect "lying header" b ~dt ~count
    (Snapshot.Truncated_payload { expected = payload_len; got = lie })

(* --- logged point-to-point: duplicate suppression --- *)

let test_dup_suppression () =
  let w = Mpi.create_world ~size:2 () in
  let store = Store.create () in
  let n = 32 in
  let a = pattern n in
  let b = Buf.create n in
  for i = 0 to n - 1 do
    Buf.set_u8 b i (255 - Buf.get_u8 a i)
  done;
  let got_a = Buf.create n and got_b = Buf.create n in
  Mpi.run w (fun c ->
      let rt = Restart.create ~store ~job:"dup" c in
      if Mpi.rank c = 0 then begin
        Restart.send rt ~dst:1 ~tag:5 (Mpi.Bytes a);
        (* forge a stale duplicate of seq 0: recovery re-deliveries look
           exactly like this on the wire *)
        let env = Buf.create (24 + n) in
        Buf.set_i64 env 0 1L;
        (* a later incarnation: suppression keys on seq, not life *)
        Buf.set_i64 env 8 0L;
        Buf.set_i64 env 16 0L;
        Buf.blit ~src:a ~src_pos:0 ~dst:env ~dst_pos:24 ~len:n;
        Mpi.Internal.send_k c Restart ~dst:1 ~tag:5 (Mpi.Bytes env);
        Restart.send rt ~dst:1 ~tag:5 (Mpi.Bytes b)
      end
      else begin
        let s = Restart.recv rt ~source:0 ~tag:5 (Mpi.Bytes got_a) in
        check_int "payload length unwrapped" n s.Mpi.len;
        ignore (Restart.recv rt ~source:0 ~tag:5 (Mpi.Bytes got_b))
      end);
  check_bool "first payload" true (Buf.equal a got_a);
  check_bool "second payload (duplicate skipped)" true (Buf.equal b got_b);
  let s = Mpi.world_stats w in
  check_int "one duplicate suppressed" 1 (Stats.get s Dups_suppressed);
  check_int "both sends logged" 2 (Stats.get s Msgs_logged);
  check_int "nothing replayed" 0 (Stats.get s Msgs_replayed)

(* --- epoch commits, restore, pruning --- *)

let test_commit_restore () =
  let w = Mpi.create_world ~size:2 () in
  let store = Store.create () in
  let dt = Dt.contiguous 4 Dt.float64 in
  Mpi.run w (fun c ->
      let me = Mpi.rank c in
      let rt = Restart.create ~store ~job:"cr" c in
      let x = Buf.create 32 in
      for i = 0 to 3 do
        Buf.set_f64 x (8 * i) (float_of_int ((10 * me) + i))
      done;
      Restart.register rt ~name:"x" ~dt ~count:1 x;
      check_bool "registered (hidden cursors excluded)" true
        (List.map fst (Restart.registered rt) = [ "x" ]);
      check_int "epoch starts at -1" (-1) (Restart.epoch rt);
      Restart.commit rt;
      check_int "epoch 0 committed" 0 (Restart.epoch rt);
      (* interval 1: exchange, then mutate *)
      let peer = 1 - me in
      Restart.send rt ~dst:peer ~tag:1 (Mpi.Bytes (pattern 8));
      ignore (Restart.recv rt ~source:peer ~tag:1 (Mpi.Bytes (Buf.create 8)));
      Buf.set_f64 x 0 999.;
      Restart.commit rt;
      check_int "epoch 1 committed" 1 (Restart.epoch rt);
      (* scribble, then rewind to epoch 0 *)
      Buf.fill x '\000';
      Restart.restore_to rt ~epoch:0;
      check_int "epoch rewound" 0 (Restart.epoch rt);
      for i = 0 to 3 do
        check_bool
          (Printf.sprintf "value %d restored" i)
          true
          (Buf.get_f64 x (8 * i) = float_of_int ((10 * me) + i))
      done;
      (* log pruning: epoch-1 entries are disposable once epoch 1 is
         globally complete *)
      check_int "one log entry" 1
        (List.length
           (Store.list store ~prefix:(Printf.sprintf "cr/log/r%03d/" me)));
      Restart.prune_log rt ~upto:1;
      check_int "log pruned" 0
        (List.length
           (Store.list store ~prefix:(Printf.sprintf "cr/log/r%03d/" me))));
  check_int "both epochs globally complete" 1
    (Restart.latest_complete_epoch store ~job:"cr" ~nranks:2);
  check_int "no epoch complete for a bigger group" (-1)
    (Restart.latest_complete_epoch store ~job:"cr" ~nranks:3);
  let s = Mpi.world_stats w in
  (* 2 ranks x 2 epochs x 2 registered buffers (x + hidden cursors) *)
  check_int "checkpoints taken" 8 (Stats.get s Checkpoints_taken);
  check_int "restores" 4 (Stats.get s Buffers_restored);
  check_bool "checkpoint bytes counted" true (Stats.get s Checkpoint_bytes > 0)

(* --- damaged snapshots fail closed through restore_to --- *)

let test_restore_fail_closed () =
  let w = Mpi.create_world ~size:1 () in
  let store = Store.create () in
  Mpi.run w (fun c ->
      let rt = Restart.create ~store ~job:"fc" c in
      let x = pattern 64 in
      Restart.register rt ~name:"x" ~dt:(Dt.contiguous 16 Dt.int32) ~count:1 x;
      Restart.commit rt;
      let path = "fc/ckpt/e0000/r000/x" in
      check_bool "snapshot stored where documented" true (Store.mem store path);
      let expect name damage err_ok =
        let img = Option.get (Store.read store path) in
        damage ();
        (match Restart.restore_to rt ~epoch:0 with
        | () -> Alcotest.failf "%s: restore accepted damage" name
        | exception Snapshot.Corrupt_snapshot e ->
            if not (err_ok e) then
              Alcotest.failf "%s: unexpected error %s" name
                (Snapshot.error_to_string e));
        Store.write store path img
      in
      expect "bit rot"
        (fun () -> Store.corrupt_bit store path ~pos:70 ~bit:0)
        (function Snapshot.Payload_crc_mismatch -> true | _ -> false);
      expect "torn write"
        (fun () -> Store.truncate store path ~len:40)
        (function Snapshot.Too_short _ -> true | _ -> false);
      expect "missing image"
        (fun () -> Store.delete store path)
        (function Snapshot.Too_short { got = 0; _ } -> true | _ -> false);
      (* undamaged: restores fine *)
      Restart.restore_to rt ~epoch:0)

(* --- replay divergence is loud --- *)

let test_replay_divergence () =
  let store = Store.create () in
  let run_life payload expect_diverge =
    let w = Mpi.create_world ~size:2 () in
    let diverged = ref false in
    Mpi.run w (fun c ->
        let rt = Restart.create ~store ~job:"div" c in
        if Mpi.rank c = 0 then
          try Restart.send rt ~dst:1 ~tag:2 (Mpi.Bytes payload)
          with Restart.Replay_diverged _ -> diverged := true
        else if not expect_diverge then
          ignore (Restart.recv rt ~source:0 ~tag:2 (Mpi.Bytes (Buf.create 16))));
    !diverged
  in
  check_bool "first life logs" false (run_life (pattern 16) false);
  (* a deterministic replay matches the log... *)
  check_bool "identical replay verifies" false (run_life (pattern 16) false);
  check_int "replay verified against the log" 1
    (let s = Store.list store ~prefix:"div/log/" in
     List.length s);
  (* ...a different payload at the same sequence number is divergence *)
  check_bool "diverging replay detected" true
    (run_life (Buf.create 16) true)

(* --- in-world recovery: crash, shrink, restore, finish --- *)

(* Each rank carries a counter advanced deterministically per epoch and
   exchanged around the current ring; receivers verify the incoming
   value against the sender's closed form, so a wrong restore surfaces
   as a value mismatch rather than a hang. *)
let counter_app ~epochs ~accs =
  let expected wr e =
    (* sum_{k=1..e} k * (wr+1) *)
    float_of_int (e * (e + 1) / 2 * (wr + 1))
  in
  {
    Restart.epochs;
    init =
      (fun rt ->
        let me = Mpi.world_rank_of (Restart.comm rt) (Mpi.rank (Restart.comm rt)) in
        let acc = accs.(me) in
        Buf.set_f64 acc 0 0.;
        Restart.register rt ~name:"acc" ~dt:Dt.float64 ~count:1 acc);
    step =
      (fun rt ~epoch ->
        let c = Restart.comm rt in
        let me = Mpi.rank c and n = Mpi.size c in
        let wme = Mpi.world_rank_of c me in
        let acc = accs.(wme) in
        Buf.set_f64 acc 0
          (Buf.get_f64 acc 0 +. float_of_int (epoch * (wme + 1)));
        if n > 1 then begin
          let right = (me + 1) mod n and left = (me - 1 + n) mod n in
          Restart.send rt ~dst:right ~tag:3 (Mpi.Bytes acc);
          let inb = Buf.create 8 in
          ignore (Restart.recv rt ~source:left ~tag:3 (Mpi.Bytes inb));
          let wleft = Mpi.world_rank_of c left in
          if Buf.get_f64 inb 0 <> expected wleft epoch then
            Alcotest.failf
              "epoch %d: rank %d sent %g, expected %g (stale restore?)" epoch
              wleft (Buf.get_f64 inb 0) (expected wleft epoch)
        end);
  }

let test_run_protected_shrink () =
  let size = 3 and epochs = 6 in
  let w = Mpi.create_world ~size () in
  Mpi.set_faults w (Some (crash_plan ~rank:2 ~at:40_000. ~hb:20_000.));
  let store = Store.create () in
  let accs = Array.init size (fun _ -> Buf.create 8) in
  let finished = Array.make size false in
  Mpi.run w (fun c ->
      let rt = Restart.create ~store ~job:"shrink" c in
      try
        Restart.run_protected rt (counter_app ~epochs ~accs);
        finished.(Mpi.world_rank_of c (Mpi.rank c)) <- true
      with Mpi.Mpi_error _ | Mpi.Aborted _ -> ());
  check_bool "rank 0 finished" true finished.(0);
  check_bool "rank 1 finished" true finished.(1);
  check_bool "crashed rank did not finish" false finished.(2);
  (* survivors carried the full computation *)
  for r = 0 to 1 do
    let v = Buf.get_f64 accs.(r) 0 in
    let want = float_of_int (epochs * (epochs + 1) / 2 * (r + 1)) in
    check_bool (Printf.sprintf "rank %d final counter" r) true (v = want)
  done;
  let s = Mpi.world_stats w in
  check_bool "recovery ran on each survivor" true (Stats.get s Recoveries >= 2);
  check_bool "buffers restored during recovery" true
    (Stats.get s Buffers_restored > 0)

(* --- cross-world respawn: byte-identical convergence --- *)

(* Communication-dependent state: each rank's accumulator folds in the
   neighbour's value every epoch, so a restore from a wrong epoch (or a
   non-deterministic replay) changes the final bytes. *)
let mesh_app ~size ~epochs ~finals =
  let dt = Dt.vector ~count:4 ~blocklength:1 ~stride:2 Dt.float64 in
  ignore size;
  {
    Restart.epochs;
    init =
      (fun rt ->
        let c = Restart.comm rt in
        let me = Mpi.rank c in
        let grid = Buf.create (src_len dt ~count:1) in
        for i = 0 to 3 do
          Buf.set_f64 grid (16 * i) (float_of_int ((100 * me) + i))
        done;
        Restart.register rt ~name:"grid" ~dt ~count:1 grid);
    step =
      (fun rt ~epoch ->
        let c = Restart.comm rt in
        let me = Mpi.rank c and n = Mpi.size c in
        let grid = List.assoc "grid" (Restart.registered rt) in
        let right = (me + 1) mod n and left = (me - 1 + n) mod n in
        Restart.send rt ~dst:right ~tag:4
          (Mpi.Typed { dt; count = 1; base = grid });
        let inb = Buf.create (src_len dt ~count:1) in
        ignore
          (Restart.recv rt ~source:left ~tag:4
             (Mpi.Typed { dt; count = 1; base = inb }));
        for i = 0 to 3 do
          Buf.set_f64 grid (16 * i)
            ((Buf.get_f64 grid (16 * i) *. 0.75)
            +. (Buf.get_f64 inb (16 * i) *. 0.25)
            +. float_of_int (epoch * (i + 1)));
          if epoch = epochs then
            Buf.set_f64 finals.(me) (8 * i) (Buf.get_f64 grid (16 * i))
        done);
  }

let epoch_complete_times obs =
  List.filter_map
    (fun (i : Obs.instant) ->
      if i.Obs.i_name = "epoch_complete" then
        match List.assoc_opt "epoch" i.Obs.i_args with
        | Some (Obs.Int e) -> Some (e, i.Obs.i_time)
        | _ -> None
      else None)
    (Obs.instants obs)

let test_run_job_respawn_byte_identical () =
  let size = 3 and epochs = 4 in
  (* golden fault-free run, instrumented to learn the epoch timeline *)
  let golden = Array.init size (fun _ -> Buf.create 32) in
  let store_g = Store.create () in
  let obs = Obs.create () in
  let report =
    Restart.run_job ~obs ~store:store_g ~job:"mesh" ~size
      (mesh_app ~size ~epochs ~finals:golden)
  in
  check_bool "fault-free job completes" true report.Restart.completed;
  check_int "fault-free job uses one world" 1 report.Restart.worlds_used;
  check_bool "fault-free job starts fresh" true
    (report.Restart.start_epochs = [ -1 ]);
  let times = epoch_complete_times obs in
  let t_of e =
    List.filter_map (fun (e', t) -> if e' = e then Some t else None) times
  in
  let crash_at =
    (List.fold_left Float.max neg_infinity (t_of 2)
    +. List.fold_left Float.min infinity (t_of 3))
    /. 2.
  in
  check_bool "epoch timeline observed" true (crash_at > 0.);
  (* crash a rank between the epoch-2 and epoch-3 cuts, every world *)
  let crashed = Array.init size (fun _ -> Buf.create 32) in
  let store_c = Store.create () in
  let report =
    Restart.run_job
      ~plan:(crash_plan ~rank:1 ~at:crash_at ~hb:20_000.)
      ~store:store_c ~job:"mesh" ~size
      (mesh_app ~size ~epochs ~finals:crashed)
  in
  check_bool "crashed job completes" true report.Restart.completed;
  check_bool "a replacement world was spawned" true
    (report.Restart.worlds_used >= 2);
  (match report.Restart.start_epochs with
  | -1 :: rest ->
      List.iter
        (fun e ->
          check_bool "replacement restores a globally-complete epoch" true
            (e >= 0 && e <= epochs))
        rest
  | l ->
      Alcotest.failf "unexpected start epochs (%d entries)" (List.length l));
  (* crash-and-recover converges byte-identically to the fault-free run:
     application state... *)
  for r = 0 to size - 1 do
    check_bool
      (Printf.sprintf "rank %d final state byte-identical" r)
      true
      (Buf.equal golden.(r) crashed.(r))
  done;
  (* ...and the final checkpoint images themselves *)
  List.iter
    (fun path ->
      let a = Option.get (Store.read store_g path) in
      match Store.read store_c path with
      | Some b ->
          check_bool (path ^ " byte-identical across runs") true (Buf.equal a b)
      | None -> Alcotest.failf "%s missing from the recovered run" path)
    (Store.list store_g
       ~prefix:(Printf.sprintf "mesh/ckpt/e%04d/" epochs))

let test_run_job_rejects_heartbeatless_crash_plan () =
  match
    Restart.run_job
      ~plan:(Fault.make ~crashes:[ (0, 1000.) ] ~hb_period_ns:0. ())
      ~store:(Store.create ()) ~job:"bad" ~size:2
      (counter_app ~epochs:1 ~accs:(Array.init 2 (fun _ -> Buf.create 8)))
  with
  | _ -> Alcotest.fail "crash plan without heartbeats must be rejected"
  | exception Invalid_argument _ -> ()

let suite =
  let tc = Alcotest.test_case in
  ( "restart",
    [
      tc "store basics" `Quick test_store_basics;
      tc "type-signature digest" `Quick test_signature_crc;
      QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
      tc "snapshots of every DDTBench kernel" `Quick test_snapshot_ddtbench;
      tc "damaged snapshots fail closed" `Quick test_fail_closed;
      tc "duplicate envelopes suppressed" `Quick test_dup_suppression;
      tc "commit / restore / prune" `Quick test_commit_restore;
      tc "restore_to fails closed on store damage" `Quick
        test_restore_fail_closed;
      tc "replay divergence detected" `Quick test_replay_divergence;
      tc "in-world shrink recovery" `Quick test_run_protected_shrink;
      tc "respawn converges byte-identical" `Quick
        test_run_job_respawn_byte_identical;
      tc "crash plan without heartbeats rejected" `Quick
        test_run_job_rejects_heartbeatless_crash_plan;
    ] )
