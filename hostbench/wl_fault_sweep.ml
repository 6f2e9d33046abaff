(* Workload "fault-sweep": for both explorer workloads (revoke-rescue
   and resilient allreduce, 4 ranks), record the injection points, then
   run every 1- and 2-fault schedule in a seed-shuffled order, in whole
   passes over the list: at least two, more while time allows.

   One op is one [wl_run].  An op fails on an exception, an oracle
   violation, or a render that differs from the first run of the same
   schedule (every schedule is replayed at least once).  A traced run
   records spans on every other op, alternating between passes, so
   each schedule runs both traced and untraced. *)

module Explore = Mpicd_explore_lib.Explore
module Workloads = Mpicd_explore_lib.Workloads

let schedules ~max_faults points =
  let pts = Array.of_list points in
  let n = Array.length pts in
  let singles = List.init n (fun i -> [ pts.(i) ]) in
  if max_faults < 2 then singles
  else
    singles
    @ List.concat
        (List.init n (fun i ->
             List.init (n - i - 1) (fun d -> [ pts.(i); pts.(i + d + 1) ])))

(* Fisher-Yates with a seeded generator. *)
let shuffle ~seed a =
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Retransmissions of one run, from the stats line that ends its render. *)
let retransmits render =
  let last = List.hd (List.rev (String.split_on_char '\n' render)) in
  Option.value ~default:0 (Scanf.sscanf_opt last "stats: retx=%d" Fun.id)

let run ~smoke ~seed ~seconds ~spans =
  let wls = Workloads.all in
  (* Each set-up records afresh; only the last timelines are kept. *)
  let tls = ref [] in
  let record () =
    let t0 = Timing.now_ns () in
    tls :=
      List.map
        (fun wl ->
          Spans.wrap spans ("explore.record." ^ wl.Workloads.wl_name) (fun () ->
              Explore.record wl))
        wls;
    Timing.since_ns t0 /. 1e9
  in
  let setup_s = Timing.repeat_setup ~reps:(if smoke then 1 else 201) record in
  let tls = !tls in
  let max_faults = if smoke then 1 else 2 in
  let plan =
    List.concat
      (List.map2
         (fun wl tl ->
           List.map
             (fun sched -> (wl, Explore.plan_of_schedule wl.Workloads.wl_base sched))
             (schedules ~max_faults tl.Explore.tl_points))
         wls tls)
    |> Array.of_list
  in
  shuffle ~seed plan;
  let n = Array.length plan in
  let renders = Array.make n None in
  let fails = Outcome.failures () in
  let ops = ref [] and retx = ref 0 in
  let op pass k =
    let wl, p = plan.(k) in
    let rec_ = Spans.alternate spans (pass + k) in
    let t0 = Timing.now_ns () in
    Spans.wrap rec_ "workloads.wl_run" (fun () ->
        Outcome.guarded fails ~what:(Printf.sprintf "schedule %d" k) (fun () ->
            let r = wl.Workloads.wl_run p in
            retx := !retx + retransmits r.Workloads.res_render;
            if r.Workloads.res_failures <> [] then
              Outcome.failf fails "schedule %d (%s): %s" k wl.Workloads.wl_name
                (String.concat "; " r.Workloads.res_failures)
            else
              match renders.(k) with
              | None -> renders.(k) <- Some r.Workloads.res_render
              | Some first when first = r.Workloads.res_render -> ()
              | Some _ ->
                  Outcome.failf fails "schedule %d (%s): replay render differs" k
                    wl.Workloads.wl_name));
    ops := (Timing.since_ns t0, Spans.enabled rec_) :: !ops
  in
  let t_start = Timing.now_ns () and rss = ref nan in
  let passes =
    Timing.passes ~min_passes:2 ~deadline:(t_start +. (seconds *. 1e9)) (fun pass ->
        Array.iteri (fun k _ -> op pass k) plan;
        if pass = 1 then rss := Timing.peak_rss_mb ())
  in
  let measured_s = Timing.since_ns t_start /. 1e9 in
  let ops = Array.of_list (List.rev !ops) in
  {
    Outcome.setup_s = Array.of_list setup_s;
    ops_ns = Array.map fst ops;
    traced = Array.map snd ops;
    batch = 32;
    measured_s;
    attempted = Array.length ops;
    peak_rss_mb = !rss;
    failed = fails.Outcome.count;
    errors = Outcome.errors fails;
    extra =
      [
        ("fault_sweep.schedules", float_of_int n);
        ( "fault_sweep.points",
          float_of_int
            (List.fold_left (fun a tl -> a + List.length tl.Explore.tl_points) 0 tls) );
        ("fault_sweep.passes", float_of_int passes);
        ( "fault_sweep.retransmits_per_run",
          float_of_int !retx /. float_of_int (passes * n) );
        ("fault_sweep.record_ms", Timing.median (Array.of_list setup_s) *. 1e3);
      ]
      @ List.map
          (fun wl ->
            let mine = ref [] in
            Array.iteri
              (fun i (dt, _) -> if fst plan.(i mod n) == wl then mine := dt :: !mine)
              ops;
            ( "fault_sweep.run_ms." ^ wl.Workloads.wl_name,
              Timing.median (Array.of_list !mine) /. 1e6 ))
          wls;
  }
