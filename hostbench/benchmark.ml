(* Host-time benchmark of the reproduction: end-to-end metrics per
   workload, and per-layer metrics from a separate traced run.

   Usage:
     benchmark.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                   [--work DIR]
     benchmark.exe --smoke [--work DIR]

   Workloads: figures, allreduce-1k, allreduce-4k, fault-sweep (see
   hostbench/README.md for what each runs and why).  The last line of
   standard output is one JSON object with the keys correct, attempted,
   failed and metrics; with --trace 0 the metrics are the end-to-end
   ones, with --trace 1 the per-layer ones, and the spans and the
   workload's own counters go to DIR/bench-trace.json.  Every
   correctness gate runs in both modes; the exit code is non-zero if
   any op failed one.

   --smoke runs every workload at about 1/20 size (three figure pieces,
   20 rounds at 1k ranks, 64 ranks in place of 4k, 1-fault schedules
   only) with every gate and no timing, in one process, and then checks
   that a failing gate is reported. *)

module Plan = Mpicd_datatype.Plan

let workloads = [ "figures"; "allreduce-1k"; "allreduce-4k"; "fault-sweep" ]

let allreduce ~setups ranks min_rounds =
  Wl_allreduce.run ~size:{ Wl_allreduce.ranks; min_rounds; setups }

let run_workload name ~smoke ~seed ~seconds ~work ~spans =
  let allreduce = allreduce ~seed ~seconds ~spans in
  match name with
  | "figures" ->
      Wl_figures.run ~smoke ~full:(Spans.enabled spans && not smoke) ~seconds ~work ~spans
  | "allreduce-1k" ->
      if smoke then allreduce ~setups:1 1024 20 else allreduce ~setups:11 1024 100
  | "allreduce-4k" ->
      if smoke then allreduce ~setups:1 64 20 else allreduce ~setups:3 4096 10
  | "fault-sweep" -> Wl_fault_sweep.run ~smoke ~seed ~seconds ~spans
  | _ -> invalid_arg name

type metric = Probes.metric = { name : string; unit_ : string; value : float }

(* Mean op time of each run of [batch] consecutive ops, in ms (the
   batch-means method): percentiles over batches stay steady when single
   ops differ widely, as Fig. 10 rows and fault schedules do.  A final
   partial batch is dropped unless it is the only one. *)
let batch_means_ms ~batch ops =
  let mean lo n =
    let s = ref 0. in
    for i = lo to lo + n - 1 do
      s := !s +. ops.(i)
    done;
    !s /. float_of_int n /. 1e6
  in
  let full = Array.length ops / batch in
  if full = 0 then [| mean 0 (Array.length ops) |]
  else Array.init full (fun i -> mean (i * batch) batch)

let samples (r : Outcome.t) = batch_means_ms ~batch:r.Outcome.batch r.Outcome.ops_ns

let end_to_end (r : Outcome.t) =
  let m = Probes.m in
  [
    m "setup_s" "s" (Timing.median r.Outcome.setup_s);
    m "op_ms_p50" "ms" (Timing.median (samples r));
    m "peak_rss_mb" "MB" r.Outcome.peak_rss_mb;
  ]

(* Printed beside the end-to-end metrics but not guarded: across runs
   on a shared host their spread is wider than any bound allowed (see
   README.md).  The tail is the highest whole percentile with at least
   ten samples beyond it. *)
let shown (r : Outcome.t) =
  let samples = samples r in
  let n = Array.length samples in
  let tail =
    if n <= 20 then []
    else
      let pct = 100 * (n - 10) / n in
      [ (Printf.sprintf "op_ms_p%d" pct, Timing.quantile (float_of_int pct /. 100.) samples) ]
  in
  ("op_samples", float_of_int n)
  :: ("ops_per_s", float_of_int (Array.length r.Outcome.ops_ns) /. r.Outcome.measured_s)
  :: tail

(* A non-finite value (a gate failed before anything was timed) is
   written as null, and the result is then not correct. *)
let correct ~failed metrics =
  failed = 0 && List.for_all (fun x -> Float.is_finite x.value) metrics

let json_of_result ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (correct ~failed metrics) attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf {|%s: {"value": %s, "unit": %s}|}
              (Mpicd_obs.Json.quote x.name) (num x.value) (Mpicd_obs.Json.quote x.unit_))
          metrics))

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

(* Mean host time of the ops that ran with spans on, over that of the
   ops that ran with them off, minus one.  The workloads alternate the
   two over the same mix of work. *)
let overhead_frac (r : Outcome.t) =
  let mean on =
    let s = ref 0. and n = ref 0 in
    Array.iteri
      (fun i t ->
        if r.Outcome.traced.(i) = on then begin
          s := !s +. t;
          incr n
        end)
      r.Outcome.ops_ns;
    !s /. float_of_int !n
  in
  (mean true /. mean false) -. 1.

let per_layer (r : Outcome.t) ~alloc_bytes ~hits ~misses ~probes =
  let m = Probes.m in
  m "trace.overhead_frac" "ratio" (overhead_frac r)
  :: m "gc.alloc_mb_per_op" "MB"
       (alloc_bytes /. 1e6 /. float_of_int (max 1 r.Outcome.attempted))
  :: m "plan.cache_hit_ratio" "ratio"
       (float_of_int hits /. float_of_int (max 1 (hits + misses)))
  :: probes

(* One workload run; returns true iff every op passed its gates and
   every metric is a number. *)
let run_one name ~smoke ~seed ~seconds ~trace ~work =
  let spans = Spans.create ~enabled:trace in
  let hits0 = Plan.cache_hits () and misses0 = Plan.cache_misses () in
  let alloc0 = Gc.allocated_bytes () in
  let r = run_workload name ~smoke ~seed ~seconds ~work ~spans in
  let alloc_bytes = Gc.allocated_bytes () -. alloc0 in
  let hits = Plan.cache_hits () - hits0 and misses = Plan.cache_misses () - misses0 in
  let attempted = max 1 r.Outcome.attempted in
  let failed = min attempted r.Outcome.failed in
  List.iter (fun e -> Printf.eprintf "%s: FAIL %s\n%!" name e) r.Outcome.errors;
  let metrics =
    if not trace then end_to_end r
    else begin
      let probes = if smoke then [] else Probes.all ~spans in
      let metrics = per_layer r ~alloc_bytes ~hits ~misses ~probes in
      Spans.write spans
        ~path:(Filename.concat work "bench-trace.json")
        ~max_spans:50_000
        ~extra:(r.Outcome.extra @ List.map (fun x -> (x.name, x.value)) metrics);
      metrics
    end
  in
  if smoke then
    Printf.printf "%-13s %5d ops  %d failed  extra: %s\n%!" name attempted failed
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) r.Outcome.extra))
  else begin
    List.iter
      (fun (k, v) -> Printf.printf "%-36s %16.6g\n" k v)
      (r.Outcome.extra @ if trace then [] else shown r);
    List.iter (fun x -> Printf.printf "%-36s %16.6g %s\n" x.name x.value x.unit_) metrics;
    print_endline (json_of_result ~attempted ~failed metrics)
  end;
  correct ~failed metrics

(* The failure path: an allreduce size with no pinned virtual time must
   fail its gate, and a run that timed nothing must still print a result
   that is not correct. *)
let smoke_failure_check () =
  let spans = Spans.off in
  let r = allreduce ~setups:1 8 3 ~seed:1 ~seconds:0. ~spans in
  let empty = { r with Outcome.ops_ns = [||]; traced = [||]; measured_s = 0. } in
  let line = json_of_result ~attempted:1 ~failed:0 (end_to_end empty) in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length line && (String.sub line i n = sub || go (i + 1))
    in
    go 0
  in
  let ok = r.Outcome.failed > 0 && contains {|"correct": false|} && contains "null" in
  Printf.printf "failure path  %s\n%!" (if ok then "reported" else "NOT reported");
  ok

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. in
  let trace = ref false and smoke = ref false and work = ref "_build/hostbench" in
  let usage () =
    prerr_endline
      "usage: benchmark.exe (--workload NAME | --smoke) [--seed N] [--seconds S] \
       [--trace 0|1] [--work DIR]";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        seed := int_of_string n;
        parse rest
    | "--seconds" :: s :: rest when Option.is_some (float_of_string_opt s) ->
        seconds := Float.max 0. (float_of_string s);
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | "--work" :: d :: rest ->
        work := d;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | arg :: _ ->
        Printf.eprintf "benchmark: bad argument %S\n" arg;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  mkdir_p !work;
  let ok =
    match (!smoke, !workload) with
    | true, _ ->
        List.for_all Fun.id
          (List.map
             (fun w ->
               run_one w ~smoke:true ~seed:!seed ~seconds:0. ~trace:true ~work:!work)
             workloads)
        && smoke_failure_check ()
    | false, Some w ->
        run_one w ~smoke:false ~seed:!seed ~seconds:!seconds ~trace:!trace ~work:!work
    | false, None -> usage ()
  in
  exit (if ok then 0 else 1)
