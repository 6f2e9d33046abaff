(* Workloads "allreduce-1k" / "allreduce-4k": one flat world of N
   ranks, one warm-up round, then timed rounds of [allreduce_f64] on 8
   seed-drawn integer-valued doubles per rank until the deadline.

   One op is one round, timed at rank 0 between consecutive returns.
   Rank 0 is the reduce root, so each interval covers every rank's
   contribution.  A ninth element carries rank 0's stop decision
   inside the reduction itself, so every rank leaves after the same
   round without extra messages.  A traced run records the per-rank
   allreduce spans on odd rounds only ([Spans.alternate]). *)

module Mpi = Mpicd.Mpi
module Collectives = Mpicd_collectives.Collectives
module Engine = Mpicd_simnet.Engine
module Stats = Mpicd_simnet.Stats

type size = {
  ranks : int;
  min_rounds : int;  (** timed rounds before rank 0 may stop *)
  setups : int;  (** set-up repetitions, the timed world's included *)
}

let elems = 8

(* Virtual time at rank 0's return from timed round [min_rounds],
   pinned per (ranks, min_rounds): the simulation must stay
   bit-identical, whatever the seed and the host speed. *)
let pinned_sim_ns =
  [
    ((1024, 100), 0x1.7f09151eb85a2p+21);
    ((1024, 20), 0x1.397f87ae1478ep+19);
    ((4096, 10), 0x1.82cd6e978d503p+18);
    ((64, 20), 0x1.7832a2d0e5609p+18);
  ]

(* Contributions in [-1000, 1000]: every partial sum is an exact
   integer in binary64, whatever the reduction order. *)
let contributions ~seed ~ranks =
  let st = Random.State.make [| seed; ranks |] in
  Array.init ranks (fun _ ->
      Array.init elems (fun _ -> float_of_int (Random.State.int st 2001 - 1000)))

type timed = {
  mutable ops : (float * bool) list;  (* round times and traced flags, newest first *)
  mutable gated : int;  (* rounds checked, warm-ups included *)
  mutable last_ns : float;  (* host time of rank 0's latest return *)
  mutable ev_start : int;  (* engine events when the timed rounds began *)
  mutable ev_end : int;
  mutable sim_pin : float;
  mutable rss_pin : float;  (* peak RSS at that point, MB *)
}

let run ~size ~seed ~seconds ~spans =
  let { ranks; min_rounds; setups } = size in
  let contrib = contributions ~seed ~ranks in
  let expected =
    Array.init elems (fun j ->
        float_of_int
          (Array.fold_left (fun acc c -> acc + int_of_float c.(j)) 0 contrib))
  in
  let fails = Outcome.failures () in
  let bad_rounds = Hashtbl.create 16 in
  let tm =
    {
      ops = [];
      gated = 0;
      last_ns = nan;
      ev_start = 0;
      ev_end = 0;
      sim_pin = nan;
      rss_pin = nan;
    }
  in
  (* One world: create, spawn, warm-up round, then (if [timed]) rounds
     until rank 0's deadline.  Returns the set-up time in seconds. *)
  let world ~timed =
    let t0 = Timing.now_ns () in
    let setup_ns = ref nan in
    let w =
      Spans.wrap spans "mpi.create_world" (fun () -> Mpi.create_world ~size:ranks ())
    in
    let engine = Mpi.world_engine w and stats = Mpi.world_stats w in
    let deadline = ref infinity in
    let run_span = Spans.enter spans "mpi.run" in
    let program comm =
      let me = Mpi.rank comm in
      let data = Array.make (elems + 1) 0. in
      let round k ~stop =
        Array.blit contrib.(me) 0 data 0 elems;
        data.(elems) <- (if stop then 1. else 0.);
        let rec_ = Spans.alternate spans k in
        let sp = Spans.enter rec_ ~parent:run_span "collectives.allreduce_f64" in
        Collectives.allreduce_f64 comm ~op:`Sum data;
        Spans.leave rec_ sp;
        if me = 0 then tm.gated <- tm.gated + 1;
        for j = 0 to elems - 1 do
          if data.(j) <> expected.(j) && not (Hashtbl.mem bad_rounds k) then begin
            Hashtbl.add bad_rounds k ();
            Outcome.failf fails "round %d: rank %d element %d = %h, expected %h" k me
              j data.(j) expected.(j)
          end
        done
      in
      round 0 ~stop:false;
      if me = 0 then begin
        let t = Timing.now_ns () in
        setup_ns := t -. t0;
        deadline := t +. (seconds *. 1e9);
        tm.last_ns <- t;
        tm.ev_start <- stats.Stats.events_scheduled_total
      end;
      if timed then begin
        let rec loop k =
          let stop = me = 0 && k >= min_rounds && Timing.now_ns () >= !deadline in
          round k ~stop;
          if me = 0 then begin
            let t = Timing.now_ns () in
            let traced = Spans.enabled (Spans.alternate spans k) in
            tm.ops <- (t -. tm.last_ns, traced) :: tm.ops;
            tm.last_ns <- t;
            tm.ev_end <- stats.Stats.events_scheduled_total;
            if k = min_rounds then begin
              tm.sim_pin <- Engine.now engine;
              tm.rss_pin <- Timing.peak_rss_mb ()
            end
          end;
          if data.(elems) < 0.5 then loop (k + 1)
        in
        loop 1
      end
    in
    (try Mpi.run w program
     with e -> Outcome.failf fails "world aborted: %s" (Printexc.to_string e));
    Spans.leave spans run_span;
    (!setup_ns /. 1e9, stats)
  in
  (* Discarded set-ups, then the timed world's own: the reported set-up
     time is their median.  Compacting after each keeps a dead world's
     heap out of the next one's peak RSS. *)
  let discarded =
    Timing.repeat_setup ~reps:(setups - 1) (fun () ->
        let s = fst (world ~timed:false) in
        Gc.compact ();
        s)
  in
  let setup_s, stats = world ~timed:true in
  let ops = Array.of_list (List.rev tm.ops) in
  let ops_ns = Array.map fst ops in
  let rounds = Array.length ops_ns in
  let measured_s = Array.fold_left ( +. ) 0. ops_ns /. 1e9 in
  (match List.assoc_opt (ranks, min_rounds) pinned_sim_ns with
  | _ when rounds < min_rounds ->
      Outcome.failf fails "only %d of %d timed rounds ran" rounds min_rounds
  | Some pin when Int64.equal (Int64.bits_of_float pin) (Int64.bits_of_float tm.sim_pin)
    ->
      ()
  | Some pin ->
      Outcome.failf fails "virtual time after round %d is %h ns, pinned %h ns" min_rounds
        tm.sim_pin pin
  | None ->
      Outcome.failf fails "no pinned virtual time for %d ranks x %d rounds (%h ns)" ranks
        min_rounds tm.sim_pin);
  let events = tm.ev_end - tm.ev_start in
  {
    Outcome.setup_s = Array.of_list (setup_s :: discarded);
    ops_ns;
    traced = Array.map snd ops;
    batch = 1;
    measured_s;
    attempted = tm.gated;
    peak_rss_mb = tm.rss_pin;
    failed = fails.Outcome.count;
    errors = Outcome.errors fails;
    extra =
      [
        ("allreduce.rounds", float_of_int rounds);
        ("allreduce.sim_ns_at_pin", tm.sim_pin);
        ( "allreduce.events_per_round",
          float_of_int events /. float_of_int (max 1 rounds) );
        ("allreduce.sim_events_per_s", float_of_int events /. measured_s);
        ("allreduce.host_ns_per_event", measured_s *. 1e9 /. float_of_int events);
        ("allreduce.max_live_events", float_of_int stats.Stats.max_live_events);
        ( "allreduce.pool_hit_ratio",
          float_of_int stats.Stats.events_pooled_reuses
          /. float_of_int (max 1 stats.Stats.events_scheduled_total) );
      ];
  }
