(* Tests for the fault-space explorer and the partition/straggler fault
   kinds it drives: detector bounds under partitions and stragglers,
   crash-during-partition recovery, the explorer pipeline itself
   (record / search / shrink / replay / repro artifacts), and the
   seeded-mutation self-check that proves the explorer still catches
   the class of bug it exists for. *)

module Buf = Mpicd_buf.Buf
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Fault = Mpicd_simnet.Fault
module Engine = Mpicd_simnet.Engine
module Ucx = Mpicd_ucx.Ucx
module Mpi = Mpicd.Mpi
module Explore = Mpicd_explore_lib.Explore
module Workloads = Mpicd_explore_lib.Workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let pattern n =
  let b = Buf.create n in
  for i = 0 to n - 1 do
    Buf.set_u8 b i ((i * 31 + 7) land 0xff)
  done;
  b

(* Run one 2-rank transfer under [plan]; return (stats, elapsed_ns). *)
let run_pair ?(len = 512) ?config plan =
  let w =
    match config with
    | Some c -> Mpi.create_world ~config:c ~size:2 ()
    | None -> Mpi.create_world ~size:2 ()
  in
  Mpi.set_faults w (Some plan);
  let src = pattern len and dst = Buf.create len in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then Mpi.send comm ~dst:1 ~tag:1 (Mpi.Bytes src)
      else ignore (Mpi.recv comm ~source:0 ~tag:1 (Mpi.Bytes dst)));
  check_bool "payload intact" true (Buf.equal src dst);
  (Mpi.world_stats w, Engine.now (Mpi.world_engine w))

(* --- partitions --- *)

(* A partition that heals inside the retry budget: the detector must
   never declare anyone (partitions are not failures), and the dropped
   fragments must all be made up by retransmission. *)
let test_partition_heal_no_declaration () =
  let plan =
    Fault.make
      ~partitions:
        [ { Fault.part_group = [ 1 ]; part_start_ns = 0.; part_dur_ns = 20_000. } ]
      ~rto_ns:5_000. ~max_retries:6 ~hb_period_ns:50_000. ()
  in
  let stats, _ = run_pair plan in
  check_bool "partition dropped traffic" true (Stats.get stats Partition_drops > 0);
  check_bool "drops were retransmitted" true (Stats.get stats Retransmits > 0);
  check_int "no rank declared failed under a heal-before-budget partition" 0
    (Stats.get stats Failures_detected)

(* The partitioned predicate itself: cut iff exactly one endpoint is
   inside the group and the window is open. *)
let test_partitioned_predicate () =
  let plan =
    Fault.make
      ~partitions:
        [
          { Fault.part_group = [ 0; 2 ]; part_start_ns = 100.; part_dur_ns = 50. };
        ]
      ()
  in
  let cut src dst now = Fault.partitioned plan ~src ~dst ~now in
  check_bool "cross-cut link is cut" true (cut 0 1 120.);
  check_bool "cut is symmetric" true (cut 1 0 120.);
  check_bool "inside the group is not cut" false (cut 0 2 120.);
  check_bool "outside the group is not cut" false (cut 1 3 120.);
  check_bool "closed before start" false (cut 0 1 99.);
  check_bool "healed at start+dur" false (cut 0 1 150.)

(* --- stragglers --- *)

let straggle_elapsed ~factor =
  let plan =
    match factor with
    | None -> Fault.make ~rto_ns:5_000. ~max_retries:4 ~hb_period_ns:50_000. ()
    | Some f ->
        Fault.make
          ~stragglers:[ (1, f) ]
          ~rto_ns:5_000. ~max_retries:4 ~hb_period_ns:50_000. ()
  in
  run_pair ~len:2048 plan

(* A straggler below the detector's false-positive threshold: the run
   slows down but nobody is declared failed and no error surfaces. *)
let test_straggler_below_threshold () =
  let base_stats, base_t = straggle_elapsed ~factor:None in
  let slow_stats, slow_t = straggle_elapsed ~factor:(Some 8.) in
  check_int "baseline: no declarations" 0 (Stats.get base_stats Failures_detected);
  check_int "sub-threshold straggler: no false positive" 0
    (Stats.get slow_stats Failures_detected);
  check_bool "straggler actually slows the run" true (slow_t > base_t)

(* A straggler past the threshold is falsely declared (slow-vs-dead
   ambiguity), at exactly hb_period + f * 2 * latency. *)
let test_straggler_above_threshold_declared () =
  let hb = 10_000. in
  let lat = Config.default.Config.link.Config.latency_ns in
  (* pick f with f * 2 * lat > hb + 2 * lat *)
  let f = ((hb +. (2. *. lat)) /. (2. *. lat)) +. 1. in
  let plan =
    Fault.make ~stragglers:[ (1, f) ] ~rto_ns:5_000. ~max_retries:6
      ~hb_period_ns:hb ()
  in
  let engine = Engine.create () in
  let ctx =
    Ucx.create_context ~engine ~config:Config.default ~stats:(Stats.create ())
  in
  ignore (Ucx.create_worker ctx);
  ignore (Ucx.create_worker ctx);
  let declared = ref [] in
  Ucx.on_failure ctx (fun ~rank ~time -> declared := (rank, time) :: !declared);
  Ucx.set_faults ctx (Some plan);
  Engine.run engine;
  match !declared with
  | [ (rank, time) ] ->
      check_int "the straggler is the rank declared" 1 rank;
      Alcotest.(check (float 0.))
        "declared at hb_period + f * 2 * latency"
        (hb +. (f *. 2. *. lat))
        time
  | ds -> Alcotest.failf "expected exactly one declaration, saw %d" (List.length ds)

(* --- crash during partition --- *)

(* A rank crashes while a partition is open: recovery must still
   converge once the partition heals — survivors of the resilient
   allreduce all commit the same value. *)
let test_crash_during_partition_recovery () =
  let wl = Workloads.allreduce in
  let plan =
    {
      wl.Workloads.wl_base with
      Fault.crashes = [ (2, 2_000.) ];
      partitions =
        [ { Fault.part_group = [ 1 ]; part_start_ns = 1_000.; part_dur_ns = 15_000. } ];
    }
  in
  let res = wl.Workloads.wl_run plan in
  check_string "oracle clean: survivors recovered uniformly" ""
    (String.concat "; " res.Workloads.res_failures)

(* --- the explorer pipeline --- *)

let test_record_points_stable () =
  let wl = Workloads.revoke_rescue in
  let tl1 = Explore.record wl in
  let tl2 = Explore.record wl in
  check_bool "some injection points" true (tl1.Explore.tl_points <> []);
  check_string "recording is deterministic"
    (String.concat "," (List.map Explore.fault_id tl1.Explore.tl_points))
    (String.concat "," (List.map Explore.fault_id tl2.Explore.tl_points));
  let kinds =
    List.sort_uniq compare
      (List.map Explore.kind_of_fault tl1.Explore.tl_points)
  in
  check_bool "all five fault kinds have points" true
    (List.length kinds = List.length Explore.all_kinds)

let test_plan_of_schedule_is_a_set () =
  let wl = Workloads.revoke_rescue in
  let a = Explore.F_crash (1, 5_000.) and b = Explore.F_straggle (2, 4.) in
  let p1 = Explore.plan_of_schedule wl.Workloads.wl_base [ a; b ] in
  let p2 = Explore.plan_of_schedule wl.Workloads.wl_base [ b; a ] in
  check_string "schedule order does not change the plan"
    (Fault.to_string p1) (Fault.to_string p2)

let test_search_clean_and_deterministic () =
  let wl = Workloads.allreduce in
  let tl = Explore.record wl in
  let r1 = Explore.search ~k:1 ~budget:100 wl tl in
  let r2 = Explore.search ~k:1 ~budget:100 wl tl in
  check_bool "sweep ran" true (r1.Explore.rp_runs > 0);
  check_bool "not truncated" false r1.Explore.rp_truncated;
  check_int "no counterexamples on the real stack" 0
    (List.length r1.Explore.rp_cexs);
  check_int "same runs on re-execution" r1.Explore.rp_runs r2.Explore.rp_runs;
  check_int "same classes on re-execution" r1.Explore.rp_classes
    r2.Explore.rp_classes;
  check_bool "fingerprint pruning collapses equivalent faults" true
    (r1.Explore.rp_classes < r1.Explore.rp_points)

let test_search_budget_truncates_loudly () =
  let wl = Workloads.allreduce in
  let tl = Explore.record wl in
  let r = Explore.search ~k:1 ~budget:5 wl tl in
  check_int "budget respected" 5 r.Explore.rp_runs;
  check_bool "truncation is reported, never silent" true r.Explore.rp_truncated

let test_random_mode_deterministic_per_seed () =
  let wl = Workloads.allreduce in
  let tl = Explore.record wl in
  let run seed =
    let r =
      Explore.search ~mode:Explore.Random ~seed ~k:2 ~budget:30 wl tl
    in
    List.map (fun c -> Fault.to_string c.Explore.cex_plan) r.Explore.rp_cexs
  in
  check_bool "same seed, same schedules explored" true (run 7 = run 7);
  let r = Explore.search ~mode:Explore.Random ~seed:7 ~k:2 ~budget:30 wl tl in
  check_int "random mode is clean too" 0 (List.length r.Explore.rp_cexs)

(* With the seeded revoke_oneshot mutation on, the explorer must find
   the regression, shrink it to <= 2 faults (1-minimal), and the
   artifact must replay byte-identically; with the mutation off, the
   same bounded-exhaustive k=2 sweep must report zero counterexamples.
   This mirrors `mpicd_explore --self-check` in-process. *)
let test_mutation_self_check () =
  let wl = Workloads.revoke_rescue in
  Fun.protect
    ~finally:(fun () -> Mpi.Mutation.revoke_oneshot := false)
    (fun () ->
      Mpi.Mutation.revoke_oneshot := true;
      let tl = Explore.record wl in
      let r = Explore.search ~k:2 ~budget:400 wl tl in
      let c =
        match r.Explore.rp_cexs with
        | c :: _ -> c
        | [] -> Alcotest.fail "seeded revoke_oneshot bug not found"
      in
      let s = Explore.shrink wl c in
      let n = List.length s.Explore.cex_sched in
      check_bool "shrunk to <= 2 faults" true (n <= 2);
      check_string "failure category preserved by shrinking"
        (Explore.category c.Explore.cex_failures)
        (Explore.category s.Explore.cex_failures);
      (* 1-minimality: removing any remaining fault loses the failure *)
      List.iteri
        (fun i _ ->
          let sub = List.filteri (fun j _ -> j <> i) s.Explore.cex_sched in
          let sub_plan =
            Explore.plan_of_schedule wl.Workloads.wl_base sub
          in
          let sub_res = wl.Workloads.wl_run sub_plan in
          if
            sub_res.Workloads.res_failures <> []
            && Explore.category sub_res.Workloads.res_failures
               = Explore.category s.Explore.cex_failures
          then Alcotest.failf "shrunk schedule is not 1-minimal at fault %d" i)
        s.Explore.cex_sched;
      (match Explore.replay wl s.Explore.cex_plan with
      | Error e -> Alcotest.failf "replay diverged: %s" e
      | Ok res ->
          check_string "replay is byte-identical" s.Explore.cex_render
            res.Workloads.res_render);
      (* repro artifact roundtrip *)
      let json =
        Explore.repro_to_json ~wl ~mutations:[ "revoke_oneshot" ] s
      in
      match Explore.repro_of_json json with
      | Error e -> Alcotest.failf "repro roundtrip: %s" e
      | Ok rj ->
          check_string "workload survives the roundtrip"
            wl.Workloads.wl_name rj.Explore.rj_workload;
          check_string "plan survives the roundtrip"
            (Fault.to_string s.Explore.cex_plan)
            (Fault.to_string rj.Explore.rj_plan);
          check_string "render survives the roundtrip" s.Explore.cex_render
            rj.Explore.rj_render;
          check_bool "mutation flag recorded" true
            (rj.Explore.rj_mutations = [ "revoke_oneshot" ]));
  (* mutation off: the identical sweep is clean *)
  let tl = Explore.record wl in
  let r = Explore.search ~k:2 ~budget:400 wl tl in
  check_int "zero counterexamples with the mutation off" 0
    (List.length r.Explore.rp_cexs)

(* The explorer's fixed-sweep outcomes: every 1- and 2-fault schedule of
   both workloads, in recording order (singles, then pairs [i < j]).  No
   schedule may violate its oracle, and the CRC32 of all renders, each
   followed by a newline, must not move: it pins virtual time, fault
   fates and oracle verdicts across host-side optimisations.  A change
   that moves it on purpose must say why and record the new value. *)
let sweep_digest = 0x1825bcf7l
let sweep_runs = 2554

let test_fixed_sweep_digest () =
  let module Crc32 = Mpicd_ucx.Crc32 in
  let renders = Buffer.create (1 lsl 20) in
  let runs = ref 0 in
  List.iter
    (fun wl ->
      let pts = Array.of_list (Explore.record wl).Explore.tl_points in
      let n = Array.length pts in
      let run sched =
        let plan = Explore.plan_of_schedule wl.Workloads.wl_base sched in
        let r = wl.Workloads.wl_run plan in
        incr runs;
        if r.Workloads.res_failures <> [] then
          Alcotest.failf "%s [%s]: %s" wl.Workloads.wl_name
            (String.concat "," (List.map Explore.fault_id sched))
            (String.concat "; " r.Workloads.res_failures);
        Buffer.add_string renders r.Workloads.res_render;
        Buffer.add_char renders '\n'
      in
      Array.iter (fun p -> run [ p ]) pts;
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          run [ pts.(i); pts.(j) ]
        done
      done)
    Workloads.all;
  check_int "schedules swept" sweep_runs !runs;
  Alcotest.(check int32) "CRC32 of every render" sweep_digest
    (Crc32.digest (Buf.of_string (Buffer.contents renders)))

(* Host work of each workload's fault-free base run, as exact counts:
   the logical events the engine scheduled, the sleeps among them that
   continued in place instead of suspending their fiber, and the
   buckets the event queue stepped past finding the next event.  The
   events are virtual-time work and must not move; the other two are
   host work (docs/PERFORMANCE.md, "Host cost of a faulty world") and
   show a lost in-place sleep or a calendar sized for a large world
   (before sleeps continued in place and the calendar started small:
   0 in place and 4,219 buckets for revoke-rescue, 0 and 1,927 for
   allreduce). *)
let test_base_run_host_work () =
  List.iter
    (fun (name, events, in_place, scans) ->
      let wl = Option.get (Workloads.find name) in
      let r = wl.Workloads.wl_run wl.Workloads.wl_base in
      let s = r.Workloads.res_stats in
      check_int (name ^ ": logical events") events s.Stats.events_scheduled_total;
      check_int (name ^ ": sleeps in place") in_place (Stats.get s Sleeps_in_place);
      check_int (name ^ ": buckets scanned") scans r.Workloads.res_scans)
    [ ("revoke-rescue", 580, 184, 37); ("allreduce", 65, 8, 49) ]

let test_repro_of_json_rejects_garbage () =
  (match Explore.repro_of_json "{" with
  | Ok _ -> Alcotest.fail "parsed truncated JSON"
  | Error _ -> ());
  (match Explore.repro_of_json "{}" with
  | Ok _ -> Alcotest.fail "parsed empty object"
  | Error e ->
      check_bool "names the missing field" true
        (String.length e > 0));
  match
    Explore.repro_of_json
      {|{"version": "mpicd-explore/0", "workload": "x", "size": 2,
         "plan": "", "failure": "hang", "fingerprint": "0",
         "render": "", "mutations": []}|}
  with
  | Ok _ -> Alcotest.fail "accepted an unsupported version"
  | Error e ->
      check_bool "mentions the version" true
        (String.length e > 0)

let suite =
  let tc = Alcotest.test_case in
  ( "explore",
    [
      tc "partition heals without declarations" `Quick
        test_partition_heal_no_declaration;
      tc "partitioned predicate" `Quick test_partitioned_predicate;
      tc "sub-threshold straggler: no false positive" `Quick
        test_straggler_below_threshold;
      tc "extreme straggler falsely declared at the bound" `Quick
        test_straggler_above_threshold_declared;
      tc "crash during partition recovers" `Quick
        test_crash_during_partition_recovery;
      tc "record: stable injection points" `Quick test_record_points_stable;
      tc "plan_of_schedule treats schedules as sets" `Quick
        test_plan_of_schedule_is_a_set;
      tc "search: clean, deterministic, pruned" `Quick
        test_search_clean_and_deterministic;
      tc "search: budget truncation is loud" `Quick
        test_search_budget_truncates_loudly;
      tc "random mode deterministic per seed" `Quick
        test_random_mode_deterministic_per_seed;
      tc "seeded mutation: find, shrink, replay" `Quick
        test_mutation_self_check;
      tc "repro.json fails closed" `Quick test_repro_of_json_rejects_garbage;
      tc "base runs: host work pinned" `Quick test_base_run_host_work;
      tc "fixed 1-/2-fault sweep: clean, digest pinned" `Quick
        test_fixed_sweep_digest;
    ] )
