(* Observability: metrics registry, span invariants, exporters, and the
   zero-overhead guarantee (attaching a sink changes nothing). *)

module Buf = Mpicd_buf.Buf
module Mpi = Mpicd.Mpi
module Dt = Mpicd_datatype.Datatype
module Obs = Mpicd_obs.Obs
module Metrics = Mpicd_obs.Metrics
module Export = Mpicd_obs.Export
module Json = Mpicd_obs.Json
module H = Mpicd_harness.Harness
module Registry = Mpicd_ddtbench.Registry
module Kernel = Mpicd_ddtbench.Kernel
module Profile = Mpicd_obs.Profile
module Fault = Mpicd_simnet.Fault
module Engine = Mpicd_simnet.Engine
module Stats = Mpicd_simnet.Stats

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let pattern n =
  let b = Buf.create n in
  for i = 0 to n - 1 do
    Buf.set_u8 b i ((i * 7) land 0xff)
  done;
  b

(* --- metrics --- *)

let test_counter_gauge () =
  let m = Metrics.create () in
  let c = Metrics.counter m "sends" in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  check_int "counter" 5 (Metrics.counter_value c);
  Alcotest.(check bool) "interned" true (c == Metrics.counter m "sends");
  let g = Metrics.gauge m "depth" in
  Metrics.set g 3.;
  Metrics.set g 7.;
  Metrics.set g 2.;
  check_float "gauge value" 2. (Metrics.gauge_value g);
  check_float "gauge max" 7. (Metrics.gauge_max g);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: \"sends\" already registered as a counter")
    (fun () -> ignore (Metrics.gauge m "sends"))

let test_histogram_percentiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  for v = 1 to 1000 do
    Metrics.observe h (float_of_int v)
  done;
  check_int "count" 1000 (Metrics.count h);
  check_float "sum exact" 500500. (Metrics.sum h);
  check_float "min exact" 1. (Metrics.minimum h);
  check_float "max exact" 1000. (Metrics.maximum h);
  let within p expected =
    let got = Metrics.percentile h p in
    let rel = Float.abs (got -. expected) /. expected in
    if rel > 0.10 then
      Alcotest.failf "p%.0f = %.1f, want %.1f +-10%%" p got expected
  in
  within 50. 500.;
  within 95. 950.;
  within 99. 990.;
  (* the extremes stay inside the observed range (clamped), within one
     bucket of the exact value *)
  let p0 = Metrics.percentile h 0. and p100 = Metrics.percentile h 100. in
  Alcotest.(check bool) "p0 near min" true (p0 >= 1. && p0 <= 1.1);
  Alcotest.(check bool) "p100 near max" true (p100 >= 900. && p100 <= 1000.);
  Alcotest.(check bool) "empty percentile is NaN" true
    (Float.is_nan (Metrics.percentile (Metrics.histogram m "empty") 50.))

(* --- span model --- *)

let test_span_nesting () =
  let t = Obs.create () in
  let a = Obs.span_begin t ~time:0. ~track:0 ~cat:"p2p" "a" in
  let b = Obs.span_begin t ~time:1. ~track:0 ~cat:"proto" "b" in
  check_int "b nests under a" a.Obs.sid b.Obs.parent;
  (* nest:false attaches to the innermost open span without becoming a
     parent for later spans *)
  let c = Obs.span_begin t ~time:2. ~track:0 ~cat:"p2p" ~nest:false "c" in
  check_int "c under b" b.Obs.sid c.Obs.parent;
  let d = Obs.span_begin t ~time:3. ~track:0 ~cat:"p2p" "d" in
  check_int "d also under b (c did not push)" b.Obs.sid d.Obs.parent;
  (* other tracks have independent stacks *)
  let x = Obs.span_begin t ~time:0.5 ~track:1 ~cat:"p2p" "x" in
  check_int "tracks are independent" (-1) x.Obs.parent;
  Alcotest.(check bool) "open span" true (Obs.is_open d);
  Obs.span_end t ~time:4. d;
  (* out-of-LIFO end is tolerated *)
  Obs.span_end t ~time:5. a;
  Obs.span_end t ~time:6. b;
  Obs.span_end t ~time:6.5 c;
  Obs.span_end t ~time:7. x;
  Alcotest.(check bool) "all closed" true
    (List.for_all (fun s -> not (Obs.is_open s)) (Obs.spans t));
  (* explicit parent override on pre-computed phases *)
  let p = Obs.span_complete t ~track:0 ~cat:"proto" ~t0:1.5 ~t1:1.75 ~parent:a "ph" in
  check_int "override parent" a.Obs.sid p.Obs.parent;
  (* reader order: (t0, sid) ascending *)
  let ss = Obs.spans t in
  let rec sorted = function
    | s1 :: (s2 :: _ as rest) ->
        (s1.Obs.t0 < s2.Obs.t0
        || (s1.Obs.t0 = s2.Obs.t0 && s1.Obs.sid < s2.Obs.sid))
        && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by (t0, sid)" true (sorted ss);
  check_int "all spans retained" 6 (List.length ss)

let test_null_sink_noop () =
  let sp =
    Obs.span_begin Obs.null ~time:0. ~track:0 ~cat:"p2p"
      ~args:[ ("x", Obs.Int 1) ]
      "ignored"
  in
  Obs.span_end Obs.null ~time:1. sp;
  Obs.instant Obs.null ~time:0. ~track:0 ~cat:"p2p" "ignored";
  Alcotest.(check bool) "disabled" false (Obs.enabled Obs.null);
  check_int "no spans" 0 (Obs.span_count Obs.null);
  check_int "no instants" 0 (Obs.instant_count Obs.null)

let test_sink_bound () =
  let t = Obs.create ~max_events:3 () in
  for i = 0 to 9 do
    ignore
      (Obs.span_complete t ~track:0 ~cat:"p2p" ~t0:(float_of_int i)
         ~t1:(float_of_int (i + 1)) "s")
  done;
  check_int "retained bounded" 3 (Obs.span_count t);
  check_int "dropped counted" 7 (Obs.dropped t)

(* --- whole-path trace from a real run --- *)

(* Two ranks, both protocol paths: a non-contiguous typed message small
   enough for eager (generic pack/unpack callbacks on both sides) and a
   large contiguous one forcing rendezvous, then a barrier. *)
let traced_world () =
  let obs = Obs.create () in
  let w = Mpi.create_world ~size:2 () in
  Mpi.set_obs w obs;
  let dt = Dt.vector ~count:8 ~blocklength:2 ~stride:4 Dt.int32 in
  let big = 1 lsl 17 in
  let tsrc = pattern (Dt.extent dt) and tdst = Buf.create (Dt.extent dt) in
  let bsrc = pattern big and bdst = Buf.create big in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then begin
        Mpi.send comm ~dst:1 ~tag:0 (Mpi.Typed { dt; count = 1; base = tsrc });
        Mpi.send comm ~dst:1 ~tag:1 (Mpi.Bytes bsrc)
      end
      else begin
        ignore (Mpi.recv comm (Mpi.Typed { dt; count = 1; base = tdst }));
        ignore (Mpi.recv comm (Mpi.Bytes bdst))
      end;
      Mpi.barrier comm);
  obs

let test_world_span_invariants () =
  let obs = traced_world () in
  let spans = Obs.spans obs in
  Alcotest.(check bool) "spans recorded" true (spans <> []);
  let cats = Obs.categories obs in
  List.iter
    (fun c ->
      if not (List.mem c cats) then Alcotest.failf "category %S missing" c)
    [ "p2p"; "proto"; "callback"; "fiber" ];
  Alcotest.(check bool) "both rank tracks" true
    (List.mem 0 (Obs.tracks obs) && List.mem 1 (Obs.tracks obs));
  Alcotest.(check bool) "everything closed after run" true
    (List.for_all (fun s -> not (Obs.is_open s)) spans);
  let eps = 1e-6 in
  List.iter
    (fun s ->
      if s.Obs.t1 +. eps < s.Obs.t0 then
        Alcotest.failf "span %s ends before it starts" s.Obs.name;
      if s.Obs.parent >= 0 then begin
        match Obs.find obs s.Obs.parent with
        | None -> Alcotest.failf "span %s has dangling parent" s.Obs.name
        | Some p ->
            if p.Obs.t0 -. eps > s.Obs.t0 then
              Alcotest.failf "span %s starts before its parent %s" s.Obs.name
                p.Obs.name;
            (* callback invocations tile exactly inside their phase *)
            if s.Obs.cat = "callback" then begin
              Alcotest.(check string) "callback parent is a phase" "proto"
                p.Obs.cat;
              if s.Obs.t0 +. eps < p.Obs.t0 || s.Obs.t1 -. eps > p.Obs.t1 then
                Alcotest.failf "callback %s escapes phase %s" s.Obs.name
                  p.Obs.name
            end
      end)
    spans;
  (* both protocols appear, and MPI ops cover send and recv *)
  let names = List.map (fun s -> s.Obs.name) spans in
  List.iter
    (fun n ->
      if not (List.mem n names) then Alcotest.failf "expected a %S span" n)
    [ "send"; "recv"; "barrier"; "pack"; "unpack"; "rndv"; "wire" ]

let test_chrome_trace_parse_back () =
  let obs = traced_world () in
  let doc = Export.chrome_trace obs in
  match Json.parse doc with
  | Error e -> Alcotest.failf "emitted trace does not parse: %s" e
  | Ok j -> (
      (match Option.bind (Json.member "displayTimeUnit" j) Json.to_string with
      | Some "ns" -> ()
      | _ -> Alcotest.fail "displayTimeUnit");
      match Option.bind (Json.member "traceEvents" j) Json.to_list with
      | None -> Alcotest.fail "no traceEvents array"
      | Some evs ->
          Alcotest.(check bool) "covers all spans and instants" true
            (List.length evs >= Obs.span_count obs + Obs.instant_count obs);
          let pids = Hashtbl.create 4 in
          let flow_s = ref 0 and flow_f = ref 0 in
          List.iter
            (fun ev ->
              (match Option.bind (Json.member "ph" ev) Json.to_string with
              | Some ("X" | "B" | "i" | "M") -> ()
              | Some "s" -> incr flow_s
              | Some "f" -> incr flow_f
              | Some ph -> Alcotest.failf "unexpected phase %S" ph
              | None -> Alcotest.fail "event without ph");
              (match Option.bind (Json.member "dur" ev) Json.to_number with
              | Some d when d < 0. -> Alcotest.fail "negative duration"
              | _ -> ());
              match Option.bind (Json.member "pid" ev) Json.to_number with
              | Some pid -> Hashtbl.replace pids pid ()
              | None -> ())
            evs;
          Alcotest.(check bool) "rank pids present" true
            (Hashtbl.mem pids 0. && Hashtbl.mem pids 1.);
          Alcotest.(check bool) "flow events present" true (!flow_s > 0);
          check_int "flow starts pair with flow finishes" !flow_s !flow_f)

let test_exporters_smoke () =
  let obs = traced_world () in
  let tl = Export.timeline obs in
  Alcotest.(check bool) "timeline mentions ranks" true
    (String.length tl > 0);
  let mx = Obs.metrics obs in
  (match Json.parse (Export.metrics_json mx) with
  | Error e -> Alcotest.failf "metrics json: %s" e
  | Ok _ -> ());
  let csv = Export.metrics_csv mx in
  (match String.index_opt csv '\n' with
  | None -> Alcotest.fail "csv has no rows"
  | Some i ->
      Alcotest.(check string) "csv header"
        "name,kind,count,value,sum,mean,min,max,p50,p95,p99"
        (String.sub csv 0 i))

let test_json_parser () =
  (match Json.parse {|{"a":[1,-2.5e2,"xA\n",true,null],"b":{}}|} with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok j -> (
      match Option.bind (Json.member "a" j) Json.to_list with
      | Some [ n1; n2; s; Json.Bool true; Json.Null ] ->
          Alcotest.(check (option (float 1e-9))) "int" (Some 1.) (Json.to_number n1);
          Alcotest.(check (option (float 1e-9))) "float" (Some (-250.))
            (Json.to_number n2);
          Alcotest.(check (option string)) "escapes" (Some "xA\n")
            (Json.to_string s)
      | _ -> Alcotest.fail "list shape"));
  (match Json.parse "{\"a\":1} trailing" with
  | Ok _ -> Alcotest.fail "accepted trailing garbage"
  | Error _ -> ());
  match Json.parse "{broken" with
  | Ok _ -> Alcotest.fail "accepted broken doc"
  | Error _ -> ()

(* --- the zero-overhead guarantee --- *)

(* Attaching the sink must not change what the simulation computes: the
   virtual-time result and every Stats counter must be bit-identical to
   a detached run.  This is the contract that makes it safe to trace
   production-shaped benchmarks. *)
let test_zero_overhead () =
  let kernel =
    match Registry.find "NAS_MG_x" with
    | Some k -> k
    | None -> Alcotest.fail "NAS_MG_x kernel missing"
  in
  let make =
    Mpicd_figures.Methods.k_custom_pack kernel (Mpicd_figures.Methods.slabs kernel)
  in
  let bytes =
    let (module K : Kernel.KERNEL) = kernel in
    K.wire_bytes
  in
  let plain = H.pingpong ~reps:3 ~bytes make in
  let obs = Obs.create () in
  let traced = H.pingpong ~reps:3 ~obs ~bytes make in
  Alcotest.(check bool) "sink saw the run" true (Obs.span_count obs > 0);
  check_float "identical virtual latency" plain.H.latency_us
    traced.H.latency_us;
  check_float "identical bandwidth" plain.H.bandwidth_mib_s
    traced.H.bandwidth_mib_s;
  Alcotest.(check bool) "identical stats" true
    (plain.H.stats = traced.H.stats)

(* --- percentile accuracy bound (property) --- *)

(* The documented contract: accuracy bounded by the log-bucket width
   (one quarter-power-of-2 bucket, representative at its midpoint, so
   relative error <= 2^(1/8) - 1 ~ 9.05%) and clamped to the observed
   min/max.  Checked against the exact rank-selected sample. *)
let prop_percentile_bound =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 200)
           (map (fun e -> Float.pow 2. e) (float_bound_inclusive 40.)))
        (float_bound_inclusive 100.))
  in
  QCheck.Test.make ~name:"obs: percentile honors the log-bucket bound"
    ~count:300
    (QCheck.make
       ~print:(fun (vs, p) ->
         Printf.sprintf "n=%d p=%g" (List.length vs) p)
       gen)
    (fun (vs, p) ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "x" in
      List.iter (Metrics.observe h) vs;
      let sorted = List.sort compare vs in
      let n = List.length vs in
      let rank =
        int_of_float (Float.max 1. (Float.round (p /. 100. *. float_of_int n)))
      in
      let exact = List.nth sorted (rank - 1) in
      let got = Metrics.percentile h p in
      let lo = List.hd sorted and hi = List.nth sorted (n - 1) in
      if got < lo || got > hi then
        QCheck.Test.fail_reportf "p%g = %g escapes observed [%g, %g]" p got lo
          hi
      else
        let rel = Float.abs (got -. exact) /. exact in
        if rel > 0.0906 then
          QCheck.Test.fail_reportf "p%g = %g but exact sample is %g (rel %.4f)"
            p got exact rel
        else true)

(* --- Json.number clamping round-trips through Json.parse --- *)

let test_json_number_roundtrip () =
  (match Json.parse (Json.number Float.nan) with
  | Ok Json.Null -> ()
  | Ok _ -> Alcotest.fail "NaN did not serialize to null"
  | Error e -> Alcotest.failf "NaN output does not parse: %s" e);
  List.iter
    (fun (f, want) ->
      match Json.parse (Json.number f) with
      | Error e -> Alcotest.failf "%g output does not parse: %s" f e
      | Ok j -> (
          match Json.to_number j with
          | Some v ->
              check_float (Printf.sprintf "%g clamps to %g" f want) want v;
              Alcotest.(check bool) "clamped value is finite" true
                (Float.is_finite v)
          | None -> Alcotest.failf "%g did not produce a number" f))
    [ (Float.infinity, 1e308); (Float.neg_infinity, -1e308) ];
  List.iter
    (fun f ->
      match Json.parse (Json.number f) with
      | Error e -> Alcotest.failf "%.17g output does not parse: %s" f e
      | Ok j -> (
          match Json.to_number j with
          | None -> Alcotest.failf "%.17g did not produce a number" f
          | Some v ->
              let err =
                if f = 0. then Float.abs v
                else Float.abs (v -. f) /. Float.abs f
              in
              if err > 1e-6 then
                Alcotest.failf "%.17g round-trips to %.17g (rel %.2e)" f v err))
    [ 0.; 1.; -2.5; 123456.; 1e14; -987654321.; 3.14159e20; 1e-9; -6.25e-3 ]

(* --- the wait-state / critical-path profiler --- *)

let sum_phases (pt : Profile.phase_totals) =
  List.fold_left Int64.add 0L
    [ pt.pack; pt.wire; pt.unpack; pt.wait; pt.callback; pt.other ]

let sum_waits (wt : Profile.wait_totals) =
  List.fold_left Int64.add 0L
    [
      wt.late_sender; wt.late_receiver; wt.barrier; wt.rndv_stall;
      wt.retransmit_stall; wt.wait_other;
    ]

(* The conservation contract, as exact Int64 equalities: each rank's
   phases tile its window, its wait classes tile its wait phase, and
   the critical path tiles the window. *)
let check_conserved label (p : Profile.t) =
  let check_i64 = Alcotest.(check int64) in
  List.iter
    (fun (r : Profile.rank_profile) ->
      check_i64
        (Printf.sprintf "%s: rank %d phases tile the window" label r.rank)
        r.total_ps (sum_phases r.phases);
      check_i64
        (Printf.sprintf "%s: rank %d wait classes tile the wait phase" label
           r.rank)
        r.phases.wait (sum_waits r.waits);
      check_i64
        (Printf.sprintf "%s: rank %d cp wait classes tile its cp wait" label
           r.rank)
        r.cp_phases.wait (sum_waits r.cp_waits))
    p.ranks;
  let cp_total =
    List.fold_left
      (fun acc (r : Profile.rank_profile) ->
        Int64.add acc (sum_phases r.cp_phases))
      0L p.ranks
  in
  check_i64 (label ^ ": critical path tiles the window") p.window_ps cp_total

let test_profile_conservation () =
  let p = Profile.analyze (traced_world ()) in
  check_conserved "traced_world" p;
  check_int "two ranks profiled" 2 (List.length p.Profile.ranks);
  Alcotest.(check bool) "messages joined" true
    (p.Profile.messages_joined > 0
    && p.Profile.messages_joined <= p.Profile.messages_total);
  Alcotest.(check bool) "datatype attribution present" true
    (p.Profile.datatypes <> []);
  (match Json.parse (Profile.to_json p) with
  | Error e -> Alcotest.failf "profile json does not parse: %s" e
  | Ok j -> (
      match Option.bind (Json.member "schema" j) Json.to_string with
      | Some "mpicd-profile/1" -> ()
      | _ -> Alcotest.fail "profile json schema marker"));
  (* and on a full figure-run kernel measurement *)
  let kernel =
    match Registry.find "NAS_MG_x" with
    | Some k -> k
    | None -> Alcotest.fail "NAS_MG_x kernel missing"
  in
  let bytes =
    let (module K : Kernel.KERNEL) = kernel in
    K.wire_bytes
  in
  let _, kp =
    H.pingpong_profiled ~reps:2 ~bytes
      (Mpicd_figures.Methods.k_custom_pack kernel
         (Mpicd_figures.Methods.slabs kernel))
  in
  check_conserved "NAS_MG_x custom-pack" kp;
  Alcotest.(check bool) "kernel run spends time waiting" true
    (Profile.wait_share kp > 0.)

(* A deliberately late sender: both ranks start at t = 0, the receiver
   posts immediately, every fragment from rank 0 suffers a large extra
   in-flight delay (well under the retransmission timeout, so no
   recovery instants fire).  The receiver's pre-match wait must be
   classified late-sender and appear on its critical path. *)
let test_late_sender_classified () =
  let obs = Obs.create () in
  let w = Mpi.create_world ~size:2 () in
  Mpi.set_obs w obs;
  let faults =
    Fault.make ~seed:11
      ~link:{ Fault.clean_link with delay_p = 1.0; delay_ns = 400_000. }
      ~rto_ns:10_000_000. ~hb_period_ns:0. ()
  in
  Mpi.set_faults w (Some faults);
  let n = 4096 in
  let src = pattern n and dst = Buf.create n in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then Mpi.send comm ~dst:1 ~tag:0 (Mpi.Bytes src)
      else ignore (Mpi.recv comm (Mpi.Bytes dst)));
  let p = Profile.analyze obs in
  check_conserved "late-sender scenario" p;
  let r1 =
    List.find (fun (r : Profile.rank_profile) -> r.rank = 1) p.Profile.ranks
  in
  Alcotest.(check bool) "receiver wait classified late-sender" true
    (r1.waits.late_sender > 0L);
  Alcotest.(check bool) "late-sender dominates the receiver's waits" true
    (r1.waits.late_sender > r1.waits.rndv_stall
    && r1.waits.late_sender > r1.waits.wait_other);
  Alcotest.(check bool) "late-sender wait charged to receiver's critical path"
    true
    (r1.cp_waits.late_sender > 0L)

(* Enriched instrumentation + running the analyzer must not move the
   simulation, fault plans included: a detached faulted run, a traced
   faulted run, and a traced re-run must agree bit-for-bit — and the
   two analyses must be byte-identical (exact replay). *)
let test_zero_overhead_faulted_replay () =
  let kernel =
    match Registry.find "NAS_MG_x" with
    | Some k -> k
    | None -> Alcotest.fail "NAS_MG_x kernel missing"
  in
  let make =
    Mpicd_figures.Methods.k_custom_pack kernel (Mpicd_figures.Methods.slabs kernel)
  in
  let bytes =
    let (module K : Kernel.KERNEL) = kernel in
    K.wire_bytes
  in
  let faults =
    Fault.make ~seed:5
      ~link:{ Fault.clean_link with drop_p = 0.02; corrupt_p = 0.01 }
      ()
  in
  let plain = H.pingpong ~reps:3 ~faults ~bytes make in
  let r1, p1 = H.pingpong_profiled ~reps:3 ~faults ~bytes make in
  let r2, p2 = H.pingpong_profiled ~reps:3 ~faults ~bytes make in
  check_float "tracing does not move the faulted latency" plain.H.latency_us
    r1.H.latency_us;
  Alcotest.(check bool) "tracing does not move the faulted stats" true
    (plain.H.stats = r1.H.stats);
  check_float "replay: identical latency" r1.H.latency_us r2.H.latency_us;
  Alcotest.(check bool) "replay: identical stats" true
    (r1.H.stats = r2.H.stats);
  Alcotest.(check string) "replay: byte-identical profiles"
    (Profile.to_json p1) (Profile.to_json p2);
  check_conserved "faulted NAS_MG_x" p1

(* --- one export path for counts ---

   A traced, faulty NAS_MG_x pingpong fires fault instants, plan-cache
   lookups and in-place sleeps.  After [Stats.publish] every counter row
   of the export is a [Stats] count of the measured window (or the
   transport's [unexpected_total], which nothing else counts), each name
   once, with no mirror left. *)
let test_stats_one_export_path () =
  let kernel =
    match Registry.find "NAS_MG_x" with
    | Some k -> k
    | None -> Alcotest.fail "NAS_MG_x kernel missing"
  in
  let (module K : Kernel.KERNEL) = kernel in
  let make = Mpicd_figures.Methods.k_ddt_direct kernel (Mpicd_figures.Methods.slabs kernel) in
  let faults = Fault.make ~seed:5 ~link:{ Fault.clean_link with drop_p = 0.02 } () in
  let obs = Obs.create () in
  let r = H.pingpong ~reps:3 ~obs ~faults ~bytes:K.wire_bytes make in
  let s = r.H.stats in
  Alcotest.(check bool) "the window has faults and in-place sleeps" true
    (Stats.get s Retransmits > 0 && Stats.get s Sleeps_in_place > 0);
  Stats.publish s (Obs.metrics obs);
  let expected =
    List.filter
      (fun (_, v) -> v <> 0)
      (List.map (fun c -> (Stats.name c, Stats.get s c)) Stats.all
      @ [
          ("events_scheduled_total", s.Stats.events_scheduled_total);
          ("events_pooled_reuses", s.Stats.events_pooled_reuses);
          ("max_live_events", s.Stats.max_live_events);
        ])
    |> List.sort compare
  in
  let counters =
    List.filter_map
      (function n, Metrics.V_counter v -> Some (n, v) | _ -> None)
      (Metrics.dump (Obs.metrics obs))
  in
  Alcotest.(check (list (pair string int)))
    "counter rows = the window's Stats" expected
    (List.remove_assoc "unexpected_total" counters);
  let csv = Export.metrics_csv (Obs.metrics obs) in
  let names =
    List.filter_map
      (fun line ->
        match String.split_on_char ',' line with n :: _ when n <> "" -> Some n | _ -> None)
      (List.tl (String.split_on_char '\n' csv))
  in
  check_int "each name exported once" (List.length names)
    (List.length (List.sort_uniq compare names));
  let mirror n =
    String.starts_with ~prefix:"fault." n
    || n = "live_events"
    || (String.ends_with ~suffix:"_total" n
       && not (List.mem n [ "events_scheduled_total"; "unexpected_total" ]))
  in
  Alcotest.(check (list string)) "no mirror names" [] (List.filter mirror names)

(* --- metrics bucket table export --- *)

let test_metrics_bucket_export () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 1.; 1.5; 3.; 100.; 100.; 1e6 ];
  (match Json.parse (Export.metrics_json ~buckets:true m) with
  | Error e -> Alcotest.failf "bucketed metrics json: %s" e
  | Ok j -> (
      match
        Option.bind (Json.member "lat" j) (fun l ->
            Option.bind (Json.member "buckets" l) Json.to_list)
      with
      | None -> Alcotest.fail "no buckets array"
      | Some bs ->
          let total =
            List.fold_left
              (fun acc bk ->
                match Json.to_list bk with
                | Some [ lo; hi; n ] ->
                    let lo = Option.get (Json.to_number lo)
                    and hi = Option.get (Json.to_number hi)
                    and n = Option.get (Json.to_number n) in
                    Alcotest.(check bool) "bucket range ordered" true (lo < hi);
                    acc + int_of_float n
                | _ -> Alcotest.fail "bucket triple shape")
              0 bs
          in
          check_int "bucket counts cover every observation" 6 total));
  (* default stays bucket-free, so existing consumers see no change *)
  (match Json.parse (Export.metrics_json m) with
  | Error e -> Alcotest.failf "plain metrics json: %s" e
  | Ok j ->
      Alcotest.(check bool) "no buckets by default" true
        (Option.bind (Json.member "lat" j) (Json.member "buckets") = None));
  let csv = Export.metrics_csv ~buckets:true m in
  Alcotest.(check bool) "csv carries bucket rows" true
    (List.exists
       (fun line ->
         String.length line > 4 && String.sub line 0 4 = "lat,"
         && String.length line > 11 && String.sub line 4 7 = "bucket,")
       (String.split_on_char '\n' csv))

let suite =
  let tc = Alcotest.test_case in
  ( "obs",
    [
      tc "metrics counter + gauge" `Quick test_counter_gauge;
      tc "histogram percentiles" `Quick test_histogram_percentiles;
      tc "span nesting + ordering" `Quick test_span_nesting;
      tc "null sink is a no-op" `Quick test_null_sink_noop;
      tc "sink bound drops + counts" `Quick test_sink_bound;
      tc "world span invariants" `Quick test_world_span_invariants;
      tc "chrome trace parses back" `Quick test_chrome_trace_parse_back;
      tc "exporters smoke" `Quick test_exporters_smoke;
      tc "json parser" `Quick test_json_parser;
      tc "zero overhead when attached" `Quick test_zero_overhead;
      QCheck_alcotest.to_alcotest prop_percentile_bound;
      tc "json number clamping round-trips" `Quick test_json_number_roundtrip;
      tc "profile conservation is exact" `Quick test_profile_conservation;
      tc "late sender classified + on critical path" `Quick
        test_late_sender_classified;
      tc "zero overhead under faults + exact replay" `Quick
        test_zero_overhead_faulted_replay;
      tc "metrics bucket table export" `Quick test_metrics_bucket_export;
      tc "counts export from Stats only" `Quick test_stats_one_export_path;
    ] )
