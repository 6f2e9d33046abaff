(* mpicd-chaos: deterministic fault-injection sweep.

   Runs every protocol path (eager/rendezvous x contiguous/generic/iov)
   under a catalogue of fault plans at three fixed seeds, verifying
   payload integrity after every delivery and, once a cell is quiet,
   that the transport gave back every message slot it carved; a crash
   sweep over a resilient collective; and a checkpoint/restart sweep
   crashing a rank at every point of the epoch timeline and requiring
   byte-identical convergence with the fault-free run (--ckpt runs it
   alone; --crashes runs the collective crash sweep alone).  The same sweep replays
   identically on every machine — plans are pure data and all fault
   decisions come from the plan's own RNG stream (docs/FAULTS.md).

   --replay FILE re-executes a repro.json artifact written by
   mpicd_explore: it restores any recorded mutation flags, runs the
   artifact's fault plan against its workload twice, and requires the
   execution render to match the recorded one byte-for-byte (exit 0
   iff it does).  Counterexamples are ordinary fault plans, so replay
   needs no machinery beyond the plan grammar itself.

   Run via `dune build @chaos` (part of `dune runtest`).  Ends with a
   per-scenario pass/fail summary table and exits non-zero if any
   scenario records a failure: a damaged payload, a leaked or twice
   given message slot, a deadlocked run, a fault-free baseline
   reporting reliability events (the zero-overhead guarantee), or a
   recovered job that fails to converge. *)

module Buf = Mpicd_buf.Buf
module Engine = Mpicd_simnet.Engine
module Stats = Mpicd_simnet.Stats
module Fault = Mpicd_simnet.Fault
module Topology = Mpicd_simnet.Topology
module Obs = Mpicd_obs.Obs
module Mpi = Mpicd.Mpi
module Custom = Mpicd.Custom
module Dt = Mpicd_datatype.Datatype
module Coll = Mpicd_collectives.Collectives
module Store = Mpicd_restart.Store
module Restart = Mpicd_restart.Restart
module Explore = Mpicd_explore_lib.Explore
module Workloads = Mpicd_explore_lib.Workloads

let seeds = [ 1; 2; 3 ]
let iters = 10
let failures = ref 0

let failf fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL %s\n" msg)
    fmt

(* Every sweep runs as a named scenario; the per-scenario failure
   deltas feed the summary table, and any non-zero delta forces a
   non-zero exit. *)
let scenarios : (string * int) list ref = ref []

let scenario name f =
  let before = !failures in
  (try f ()
   with e -> failf "%s: raised %s" name (Printexc.to_string e));
  scenarios := (name, !failures - before) :: !scenarios

let summary () =
  let rows = List.rev !scenarios in
  Printf.printf "\n%-18s %s\n" "scenario" "result";
  List.iter
    (fun (name, fails) ->
      Printf.printf "%-18s %s\n" name
        (if fails = 0 then "PASS" else Printf.sprintf "FAIL (%d)" fails))
    rows;
  let bad = List.filter (fun (_, f) -> f > 0) rows in
  Printf.printf "\n%s\n"
    (if bad = [] then "chaos sweep: all scenarios passed"
     else Printf.sprintf "chaos sweep: %d scenario(s) FAILED" (List.length bad));
  exit (if bad = [] then 0 else 1)

let pattern n =
  let b = Buf.create n in
  for i = 0 to n - 1 do
    Buf.set_u8 b i ((i * 29 + 3) land 0xff)
  done;
  b

(* --- protocol paths: (send buffer, recv buffer, verify-and-reset) --- *)

let bytes_path n () =
  let src = pattern n in
  let dst = Buf.create n in
  ( (fun () -> Mpi.Bytes src),
    (fun () -> Mpi.Bytes dst),
    fun () ->
      let ok = Buf.equal src dst in
      Buf.fill dst '\000';
      ok )

let typed_path ~count () =
  let dt = Dt.vector ~count ~blocklength:2 ~stride:4 Dt.int32 in
  let src = pattern (Dt.extent dt) in
  let dst = Buf.create (Dt.extent dt) in
  ( (fun () -> Mpi.Typed { dt; count = 1; base = src }),
    (fun () -> Mpi.Typed { dt; count = 1; base = dst }),
    fun () ->
      let ok = ref true in
      Dt.iter_blocks dt ~count:1 ~f:(fun ~disp ~len ->
          for i = disp to disp + len - 1 do
            if Buf.get_u8 src i <> Buf.get_u8 dst i then ok := false
          done);
      Buf.fill dst '\000';
      !ok )

(* Custom datatype with a 4-byte packed header plus the buffer itself
   as a zero-copy region — the iov path the transport cannot checksum
   fragment-wise (docs/FAULTS.md). *)
let buf_region_dt () : Buf.t Custom.t =
  Custom.create
    {
      Custom.state = (fun _ ~count:_ -> ());
      state_free = ignore;
      query = (fun () _ ~count:_ -> 4);
      pack =
        (fun () b ~count:_ ~offset ~dst ->
          let len = min (Buf.length dst) (4 - offset) in
          for i = 0 to len - 1 do
            Buf.set_u8 dst i ((Buf.length b lsr (8 * (offset + i))) land 0xff)
          done;
          len);
      unpack =
        (fun () b ~count:_ ~offset ~src ->
          for i = 0 to Buf.length src - 1 do
            if (Buf.length b lsr (8 * (offset + i))) land 0xff <> Buf.get_u8 src i
            then raise (Custom.Error 99)
          done);
      region_count = Some (fun () _ ~count:_ -> 1);
      regions = Some (fun () b ~count:_ -> Buf.Iov.of_array [| b |]);
    }

let custom_path n () =
  let dt = buf_region_dt () in
  let src = pattern n in
  let dst = Buf.create n in
  ( (fun () -> Mpi.Custom { dt; obj = src; count = 1 }),
    (fun () -> Mpi.Custom { dt; obj = dst; count = 1 }),
    fun () ->
      let ok = Buf.equal src dst in
      Buf.fill dst '\000';
      ok )

let paths =
  [
    ("eager-contig", fun () -> bytes_path 1024 ());
    ("rndv-contig", fun () -> bytes_path (128 * 1024) ());
    ("eager-generic", fun () -> typed_path ~count:64 ());
    ("rndv-generic", fun () -> typed_path ~count:4096 ());
    ("iov-custom", fun () -> custom_path 40000 ());
  ]

(* --- plan catalogue, in the --faults plan-string grammar --- *)

let plan_specs =
  [
    ("clean", "");
    ("drop", "drop=0.05,rto=5000");
    ("corrupt", "corrupt=0.05,rto=5000");
    ("dup", "dup=0.1");
    ("delay", "delay_p=0.2,delay=2000");
    ("flap", "flap=50000/5000");
    ("mixed", "drop=0.03,corrupt=0.02,dup=0.05,rto=5000");
  ]

let plan_of ~seed spec =
  let s =
    if spec = "" then Printf.sprintf "seed=%d" seed
    else Printf.sprintf "seed=%d,%s" seed spec
  in
  match Fault.of_string s with
  | Ok p -> p
  | Error e ->
      failf "plan %S: %s" s e;
      Fault.make ~seed ()

(* Once every message has ended, each slot the transport carved for one
   has gone back exactly once: fewer free slots is a leak, more a slot
   given back twice. *)
let check_slabs path w =
  let s = Mpi.transport_slabs w in
  let carved = Buf.Slabs.carved_slots s and free = Buf.Slabs.free_slots s in
  if carved <> free then
    failf "%s: %d message slot(s) carved, %d given back" path carved free

(* One cell: [iters] verified messages 0 -> 1 under one plan. *)
let run_cell ~plan ~path mk =
  let w = Mpi.create_world ~size:2 () in
  Mpi.set_faults w (Some plan);
  let send_buf, recv_buf, verify = mk () in
  let damaged = ref 0 in
  (try
     Mpi.run w (fun comm ->
         if Mpi.rank comm = 0 then
           for i = 1 to iters do
             Mpi.send comm ~dst:1 ~tag:i (send_buf ())
           done
         else
           for i = 1 to iters do
             ignore (Mpi.recv comm ~source:0 ~tag:i (recv_buf ()));
             if not (verify ()) then incr damaged
           done)
   with e -> failf "%s: run raised %s" path (Printexc.to_string e));
  if !damaged > 0 then failf "%s: %d damaged payload(s)" path !damaged;
  check_slabs path w;
  Mpi.world_stats w

(* --- crash sweep: process failure during a collective ---

   A 5-rank world runs [Coll.resilient_allreduce_f64] while the plan
   crashes ranks at fixed virtual times (docs/RESILIENCE.md).  Checked
   per cell: no rank hangs (every fiber records an outcome and the run
   terminates); every surviving rank commits a result; each committed
   result is exactly the reduction over the committing rank's final
   group; ranks that give up are crashed ranks failing with
   [Peer_failed]/[Revoked]; completion lands within a bounded virtual
   deadline of the last crash; and the whole cell replays bit-identically
   (outcomes and counters) when run a second time with the same seed. *)

let crash_size = 5
let crash_floats = 4096 (* 32 KiB per message: the rendezvous path *)

(* integer-valued contributions, so tree-reduction order cannot perturb
   the sums and committed results compare exactly *)
let contribution r =
  Array.init crash_floats (fun j -> float_of_int ((r + 1) * ((j mod 7) + 1)))

type crash_outcome =
  | Committed of { group : int list; data : float array; shrinks : int; t : float }
  | Gave_up of { err : string; t : float }

let err_name : Mpi.error -> string = function
  | Mpi.Peer_failed { peer } -> Printf.sprintf "peer_failed:%d" peer
  | Mpi.Revoked -> "revoked"
  | Mpi.Timeout _ -> "timeout"
  | Mpi.Data_corrupted -> "data_corrupted"
  | Mpi.Truncated _ -> "truncated"
  | Mpi.Callback_failed c -> Printf.sprintf "callback_failed:%d" c

let data_digest data =
  Array.fold_left
    (fun acc v -> Int64.add (Int64.mul acc 31L) (Int64.bits_of_float v))
    7L data

let crash_outcome_str = function
  | Committed { group; data; shrinks; t } ->
      Printf.sprintf "ok group=[%s] digest=%Lx shrinks=%d t=%.0f"
        (String.concat ";" (List.map string_of_int group))
        (data_digest data) shrinks t
  | Gave_up { err; t } -> Printf.sprintf "gave_up %s t=%.0f" err t

let crash_specs =
  [
    ("crash-mid", "crash=3@20000,hb=100000,rto=5000");
    ("crash-root", "crash=0@15000,hb=100000,rto=5000");
    ("crash-two", "crash=1@10000,crash=4@60000,hb=100000,rto=5000");
    ("crash-late", "crash=2@2000000,hb=100000,rto=5000");
    ("crash-drop", "crash=2@30000,drop=0.03,hb=100000,rto=5000");
  ]

let run_crash_cell ~plan =
  let w = Mpi.create_world ~size:crash_size () in
  Mpi.set_faults w (Some plan);
  let engine = Mpi.world_engine w in
  let outcomes = Array.make crash_size None in
  (try
     Mpi.run w (fun comm ->
         let me = Mpi.rank comm in
         let data = contribution me in
         match Coll.resilient_allreduce_f64 comm ~op:`Sum data with
         | comm', shrinks ->
             let group =
               List.init (Mpi.size comm') (Mpi.world_rank_of comm')
             in
             outcomes.(me) <-
               Some
                 (Committed
                    { group; data = Array.copy data; shrinks;
                      t = Engine.now engine })
         | exception Mpi.Mpi_error err ->
             outcomes.(me) <-
               Some (Gave_up { err = err_name err; t = Engine.now engine }))
   with e -> failf "crash cell: run raised %s" (Printexc.to_string e));
  (outcomes, Mpi.world_stats w)

let check_crash_cell ~name ~seed ~plan outcomes =
  let crashed r = Fault.crash_time plan ~rank:r <> None in
  let crash_max =
    List.fold_left
      (fun m (_, t) -> Float.max m t)
      0. (Fault.earliest_crashes plan)
  in
  (* generous, but bounded: detection latency is hb + 2 latencies and
     recovery (revoke, shrink, retry) is a few hundred microseconds *)
  let deadline = crash_max +. 10e6 in
  let expected group =
    let acc = Array.make crash_floats 0. in
    List.iter
      (fun r ->
        let c = contribution r in
        Array.iteri (fun j v -> acc.(j) <- acc.(j) +. v) c)
      group;
    acc
  in
  Array.iteri
    (fun r oc ->
      match oc with
      | None -> failf "%s seed %d: rank %d has no outcome (hang?)" name seed r
      | Some (Committed { group; data; t; _ }) ->
          if not (List.mem r group) then
            failf "%s seed %d: rank %d committed a group excluding itself"
              name seed r;
          if data <> expected group then
            failf "%s seed %d: rank %d result is not the reduction over %s"
              name seed r
              (String.concat ";" (List.map string_of_int group));
          if t > deadline then
            failf "%s seed %d: rank %d finished at %.0f, past deadline %.0f"
              name seed r t deadline
      | Some (Gave_up { err; t }) ->
          if not (crashed r) then
            failf "%s seed %d: surviving rank %d gave up (%s)" name seed r err;
          (match String.index_opt err ':' with
          | Some i when String.sub err 0 i = "peer_failed" -> ()
          | _ when err = "revoked" -> ()
          | _ -> failf "%s seed %d: rank %d gave up with %s" name seed r err);
          if t > deadline then
            failf "%s seed %d: rank %d gave up at %.0f, past deadline %.0f"
              name seed r t deadline)
    outcomes

let crash_stats_str (s : Stats.t) =
  Printf.sprintf "retx=%d detect=%d cancel=%d revoke=%d shrink=%d agree=%d"
    (Stats.get s Retransmits) (Stats.get s Failures_detected)
    (Stats.get s Ops_cancelled) (Stats.get s Comm_revokes)
    (Stats.get s Comm_shrinks) (Stats.get s Comm_agreements)

let crash_sweep_spec (name, spec) =
  List.iter
    (fun seed ->
      let plan = plan_of ~seed spec in
      let outcomes, stats = run_crash_cell ~plan in
      check_crash_cell ~name ~seed ~plan outcomes;
      (* exact replay: the same seed must reproduce the same
         outcomes and the same event counts *)
      let outcomes2, stats2 = run_crash_cell ~plan in
      let render ocs =
        String.concat "|"
          (Array.to_list
             (Array.map
                (function
                  | None -> "none" | Some oc -> crash_outcome_str oc)
                ocs))
      in
      if render outcomes <> render outcomes2 then
        failf "%s seed %d: replay diverged:\n  %s\n  %s" name seed
          (render outcomes) (render outcomes2);
      if crash_stats_str stats <> crash_stats_str stats2 then
        failf "%s seed %d: replay counter mismatch: %s vs %s" name seed
          (crash_stats_str stats) (crash_stats_str stats2);
      let ok, gave =
        Array.fold_left
          (fun (ok, gave) -> function
            | Some (Committed _) -> (ok + 1, gave)
            | Some (Gave_up _) -> (ok, gave + 1)
            | None -> (ok, gave))
          (0, 0) outcomes
      in
      Printf.printf "%-12s %-6d ok=%d quit=%d %s\n" name seed ok gave
        (crash_stats_str stats))
    seeds

let crash_sweep () =
  Printf.printf "%-12s %-6s %-10s %s\n" "plan" "seed" "outcome" "resilience";
  List.iter
    (fun ((name, _) as cs) -> scenario ("crash:" ^ name) (fun () -> crash_sweep_spec cs))
    crash_specs

(* --- checkpoint/restart sweep (--ckpt) ---

   A 3-rank ring-exchange stencil runs under [Restart.run_job] with a
   crash injected at every point of the epoch timeline: for each rank
   and each inter-cut gap, the rank is crashed at two offsets inside
   the window between consecutive epoch cuts (learned from a golden
   instrumented run).  Checked per cell: the job completes through a
   respawned replacement world, every replacement restores a
   globally-complete epoch, re-execution raises no [Replay_diverged],
   and the recovered run converges *byte-identically* to the fault-free
   run — both the per-rank final application state and every snapshot
   of the final epoch in the store (docs/RESILIENCE.md). *)

let ckpt_size = 3
let ckpt_epochs = 4
let ckpt_offsets = [ 0.35; 0.65 ]
let src_len dt ~count = max 1 (Dt.ub dt + ((count - 1) * Dt.extent dt))

let mesh_app ~epochs ~finals =
  let dt = Dt.vector ~count:4 ~blocklength:1 ~stride:2 Dt.float64 in
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

let epoch_cut_times obs =
  List.filter_map
    (fun (i : Obs.instant) ->
      if i.Obs.i_name = "epoch_complete" then
        match List.assoc_opt "epoch" i.Obs.i_args with
        | Some (Obs.Int e) -> Some (e, i.Obs.i_time)
        | _ -> None
      else None)
    (Obs.instants obs)

let ckpt_crash_cell ~golden ~store_g ~crash_rank ~gap ~frac ~crash_at =
  let size = ckpt_size and epochs = ckpt_epochs in
  let cell = Printf.sprintf "ckpt r%d gap%d@%.2f" crash_rank gap frac in
  let finals = Array.init size (fun _ -> Buf.create 32) in
  let store = Store.create () in
  let plan =
    Fault.make ~crashes:[ (crash_rank, crash_at) ] ~hb_period_ns:20_000. ()
  in
  let report =
    Restart.run_job ~plan ~store ~job:"mesh" ~size
      (mesh_app ~epochs ~finals)
  in
  if not report.Restart.completed then failf "%s: job did not complete" cell;
  if report.Restart.worlds_used < 2 then
    failf "%s: crash at %.0f never fired (%d world)" cell crash_at
      report.Restart.worlds_used;
  (match report.Restart.start_epochs with
  | -1 :: rest ->
      List.iter
        (fun e ->
          if e < 0 || e > epochs then
            failf "%s: replacement restored bogus epoch %d" cell e)
        rest
  | _ -> failf "%s: first world did not start fresh" cell);
  for r = 0 to size - 1 do
    if not (Buf.equal golden.(r) finals.(r)) then
      failf "%s: rank %d final state differs from fault-free run" cell r
  done;
  let prefix = Printf.sprintf "mesh/ckpt/e%04d/" epochs in
  List.iter
    (fun path ->
      let a = Option.get (Store.read store_g path) in
      match Store.read store path with
      | Some b when Buf.equal a b -> ()
      | Some _ -> failf "%s: %s differs from fault-free run" cell path
      | None -> failf "%s: %s missing from recovered run" cell path)
    (Store.list store_g ~prefix);
  Printf.printf "%-22s worlds=%d restore=[%s]\n" cell
    report.Restart.worlds_used
    (String.concat ";"
       (List.map string_of_int (List.tl report.Restart.start_epochs)))

let ckpt_sweep () =
  let size = ckpt_size and epochs = ckpt_epochs in
  (* golden fault-free run, instrumented to learn the epoch timeline *)
  let golden = Array.init size (fun _ -> Buf.create 32) in
  let store_g = Store.create () in
  let obs = Obs.create () in
  let windows = ref [] in
  scenario "ckpt:golden" (fun () ->
      let report =
        Restart.run_job ~obs ~store:store_g ~job:"mesh" ~size
          (mesh_app ~epochs ~finals:golden)
      in
      if not report.Restart.completed then failf "ckpt golden: incomplete";
      if report.Restart.worlds_used <> 1 then
        failf "ckpt golden: %d worlds for a fault-free run"
          report.Restart.worlds_used;
      let times = epoch_cut_times obs in
      let t_of e =
        List.filter_map (fun (e', t) -> if e' = e then Some t else None) times
      in
      (* crash windows: between the last rank to finish cut g and the
         first rank to start... conservatively, the first to finish cut
         g+1 — anywhere in between, epoch g is the latest complete cut *)
      for g = 0 to epochs - 1 do
        let lo = List.fold_left Float.max neg_infinity (t_of g) in
        let hi = List.fold_left Float.min infinity (t_of (g + 1)) in
        if lo > 0. && hi > lo then windows := (g, lo, hi) :: !windows
        else failf "ckpt golden: no crash window for gap %d" g
      done);
  Printf.printf "%-22s %s\n" "cell" "recovery";
  List.iter
    (fun (g, lo, hi) ->
      scenario
        (Printf.sprintf "ckpt:gap%d" g)
        (fun () ->
          for crash_rank = 0 to size - 1 do
            List.iter
              (fun frac ->
                let crash_at = lo +. (frac *. (hi -. lo)) in
                ckpt_crash_cell ~golden ~store_g ~crash_rank ~gap:g ~frac
                  ~crash_at)
              ckpt_offsets
          done))
    (List.sort compare !windows)

(* --- scale sweep: thousand-rank collectives over a modeled network ---

   Two scenarios at --ranks ranks (default 1024) over the --topology
   network model (default fattree): a fault-free allreduce checked
   against the closed-form sum, and a crash mid-allreduce recovered by
   [Coll.resilient_allreduce_f64].  The fault-free allreduce also runs
   at 4096 ranks.  Every scenario runs twice and must replay
   bit-identically — virtual time, event counts, congestion counters
   and every rank's outcome. *)

let scale_ranks = ref 1024
let scale_topology = ref "fattree"

let scale_allreduce_once n =
  let topology = Topology.of_string !scale_topology ~nranks:n in
  let w = Mpi.create_world ~topology ~size:n () in
  let checksum = ref 0. in
  Mpi.run w (fun comm ->
      let me = Mpi.rank comm in
      let data = [| float_of_int me; 1. |] in
      Coll.allreduce_f64 comm ~op:`Sum data;
      if me = 0 then checksum := data.(0));
  let s = Mpi.world_stats w in
  Printf.sprintf "sum=%.0f t=%.0f events=%d congestion=%d/%.0f" !checksum
    (Engine.now (Mpi.world_engine w))
    s.Stats.events_scheduled_total
    (Topology.congestion_events topology)
    (Topology.congestion_wait_ns topology)

let scale_crash_once ~plan =
  let n = !scale_ranks in
  let topology = Topology.of_string !scale_topology ~nranks:n in
  let w = Mpi.create_world ~topology ~size:n () in
  Mpi.set_faults w (Some plan);
  let engine = Mpi.world_engine w in
  let outcomes = Array.make n "none" in
  (try
     Mpi.run w (fun comm ->
         let me = Mpi.rank comm in
         (* integer-valued contributions: tree-reduction order cannot
            perturb the sums, so results compare exactly *)
         let data = [| float_of_int (me + 1); float_of_int (2 * (me + 1)) |] in
         match Coll.resilient_allreduce_f64 comm ~op:`Sum data with
         | comm', shrinks ->
             outcomes.(me) <-
               Printf.sprintf "ok n=%d shrinks=%d sum=%.0f/%.0f t=%.0f"
                 (Mpi.size comm') shrinks data.(0) data.(1) (Engine.now engine)
         | exception Mpi.Mpi_error err ->
             outcomes.(me) <-
               Printf.sprintf "gave_up %s t=%.0f" (err_name err)
                 (Engine.now engine))
   with e -> failf "scale crash: run raised %s" (Printexc.to_string e));
  (outcomes, Mpi.world_stats w)

let scale_sweep () =
  let n = !scale_ranks in
  let allreduce name n =
    scenario name (fun () ->
        let r1 = scale_allreduce_once n in
        let expected = Printf.sprintf "sum=%.0f" (float_of_int (n * (n - 1) / 2)) in
        if String.length r1 < String.length expected
           || String.sub r1 0 (String.length expected) <> expected
        then failf "scale allreduce: got %s, expected %s..." r1 expected;
        let r2 = scale_allreduce_once n in
        if r1 <> r2 then
          failf "scale allreduce: replay diverged:\n  %s\n  %s" r1 r2;
        Printf.printf "scale allreduce %d ranks over %s: %s\n" n
          !scale_topology r1)
  in
  allreduce "scale:allreduce" n;
  if n <> 4096 then allreduce "scale:allreduce-4k" 4096;
  scenario "scale:crash" (fun () ->
      let crash_rank = 3 in
      let plan =
        Fault.make
          ~crashes:[ (crash_rank, 20_000.) ]
          ~hb_period_ns:100_000. ~rto_ns:5_000. ()
      in
      let outcomes, stats = scale_crash_once ~plan in
      (* survivors all commit the reduction over exactly the survivor
         group; sums of 1..n minus the crashed rank's contribution *)
      let survivors = n - 1 in
      let sum1 = (n * (n + 1) / 2) - (crash_rank + 1) in
      let want =
        Printf.sprintf "ok n=%d shrinks=1 sum=%d/%d" survivors sum1 (2 * sum1)
      in
      Array.iteri
        (fun r oc ->
          if r <> crash_rank then
            if
              String.length oc < String.length want
              || String.sub oc 0 (String.length want) <> want
            then
              failf "scale crash: rank %d outcome %S, expected %S..." r oc want)
        outcomes;
      let outcomes2, stats2 = scale_crash_once ~plan in
      if outcomes <> outcomes2 then failf "scale crash: replay diverged";
      if crash_stats_str stats <> crash_stats_str stats2 then
        failf "scale crash: replay counter mismatch: %s vs %s"
          (crash_stats_str stats) (crash_stats_str stats2);
      Printf.printf "scale crash %d ranks over %s: rank0 %s  [%s]\n" n
        !scale_topology outcomes.(0) (crash_stats_str stats))

(* --- repro replay (--replay FILE) --- *)

let replay_die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "mpicd_chaos --replay: %s\n" msg;
      exit 2)
    fmt

let replay_repro file =
  let doc =
    try
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    with Sys_error e -> replay_die "%s" e
  in
  let r =
    match Explore.repro_of_json doc with
    | Ok r -> r
    | Error e -> replay_die "%s: %s" file e
  in
  let wl =
    match Workloads.find r.Explore.rj_workload with
    | Some wl -> wl
    | None -> replay_die "%s: unknown workload %S" file r.Explore.rj_workload
  in
  if wl.Workloads.wl_size <> r.Explore.rj_size then
    replay_die "%s: workload %s runs at size %d, artifact says %d" file
      r.Explore.rj_workload wl.Workloads.wl_size r.Explore.rj_size;
  List.iter
    (function
      | "revoke_oneshot" -> Mpi.Mutation.revoke_oneshot := true
      | m -> replay_die "%s: unknown mutation flag %S" file m)
    r.Explore.rj_mutations;
  match Explore.replay wl r.Explore.rj_plan with
  | Error e -> replay_die "not deterministic: %s" e
  | Ok res ->
      let render = res.Workloads.res_render in
      let fp = Explore.fingerprint render in
      if render = r.Explore.rj_render && fp = r.Explore.rj_fingerprint then begin
        Printf.printf
          "replay %s: PASS (workload %s, fingerprint %s, failure %s \
           reproduced byte-identically)\n"
          file r.Explore.rj_workload fp r.Explore.rj_failure;
        exit 0
      end
      else begin
        Printf.printf
          "replay %s: FAIL — render diverged from artifact\n\
           --- recorded (fingerprint %s)\n\
           %s\n\
           --- replayed (fingerprint %s)\n\
           %s\n"
          file r.Explore.rj_fingerprint r.Explore.rj_render fp render;
        exit 1
      end

let () =
  (match Array.to_list Sys.argv with
  | _ :: "--replay" :: file :: _ -> replay_repro file
  | argv when List.mem "--replay" argv ->
      replay_die "--replay needs a repro.json path"
  | _ -> ());
  (* --ranks / --topology parameterize the scale sweep.  Anything
     unrecognised, or a flag without its value, exits 2 before any
     scenario runs. *)
  let die msg =
    Printf.eprintf "mpicd_chaos: %s\n" msg;
    exit 2
  in
  let rec scan = function
    | "--ranks" :: v :: rest ->
        (match int_of_string_opt v with
        | Some r when r >= 2 -> scale_ranks := r
        | _ -> die "--ranks needs an integer >= 2");
        scan rest
    | "--topology" :: v :: rest ->
        (try ignore (Topology.of_string v ~nranks:2)
         with Invalid_argument msg -> die msg);
        scale_topology := v;
        scan rest
    | [ ("--ranks" | "--topology") as flag ] -> die (flag ^ " needs a value")
    | ("--crashes" | "--ckpt" | "--scale") :: rest -> scan rest
    | arg :: _ -> die (Printf.sprintf "unknown argument %S" arg)
    | [] -> ()
  in
  scan (List.tl (Array.to_list Sys.argv));
  let only_crashes = Array.mem "--crashes" Sys.argv in
  let only_ckpt = Array.mem "--ckpt" Sys.argv in
  let only_scale = Array.mem "--scale" Sys.argv in
  if only_crashes then begin
    crash_sweep ();
    summary ()
  end;
  if only_ckpt then begin
    ckpt_sweep ();
    summary ()
  end;
  if only_scale then begin
    scale_sweep ();
    summary ()
  end;
  (* Baseline: no plan attached at all must report zero reliability
     events and perform zero reliability work. *)
  scenario "baseline" (fun () ->
      List.iter
        (fun (path, mk) ->
          let w = Mpi.create_world ~size:2 () in
          let send_buf, recv_buf, verify = mk () in
          Mpi.run w (fun comm ->
              if Mpi.rank comm = 0 then
                for i = 1 to iters do
                  Mpi.send comm ~dst:1 ~tag:i (send_buf ())
                done
              else
                for i = 1 to iters do
                  ignore (Mpi.recv comm ~source:0 ~tag:i (recv_buf ()));
                  if not (verify ()) then
                    failf "baseline %s: payload damaged" path
                done);
          check_slabs ("baseline " ^ path) w;
          let s = Mpi.world_stats w in
          if Stats.reliability_events s <> 0 then
            failf "baseline %s: %d reliability events without a fault plan"
              path
              (Stats.reliability_events s))
        paths;
      Printf.printf "baseline: zero reliability events on all %d paths\n\n"
        (List.length paths));
  Printf.printf "%-8s %-8s %-14s %6s %6s %6s %6s %6s %6s\n" "plan" "seed"
    "path" "retx" "drop" "corr" "dup" "flap" "fall";
  List.iter
    (fun (pname, spec) ->
      scenario ("matrix:" ^ pname) (fun () ->
          List.iter
            (fun seed ->
              let plan = plan_of ~seed spec in
              List.iter
                (fun (path, mk) ->
                  let s = run_cell ~plan ~path mk in
                  (* a clean plan attached engages the reliable protocol
                     (acks flow) but must do zero recovery work *)
                  if
                    pname = "clean"
                    && Stats.reliability_events s <> Stats.get s Acks
                  then
                    failf
                      "clean plan %s seed %d: recovery work on a clean link"
                      path seed;
                  Printf.printf "%-8s %-8d %-14s %6d %6d %6d %6d %6d %6d\n"
                    pname seed path (Stats.get s Retransmits)
                    (Stats.get s Frags_dropped) (Stats.get s Frags_corrupted)
                    (Stats.get s Frags_duplicated)
                    (Stats.get s Flap_waits) (Stats.get s Iov_fallbacks))
                paths)
            seeds))
    plan_specs;
  Printf.printf "\n";
  crash_sweep ();
  Printf.printf "\n";
  ckpt_sweep ();
  Printf.printf "\n";
  scale_sweep ();
  summary ()
