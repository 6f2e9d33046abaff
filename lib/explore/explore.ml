(* Deterministic fault-space exploration over the simulator.

   The explorer turns "does recovery work?" into a search problem:

   1. {e record} — run the workload fault-free with a probe tap and
      derive a finite set of injection points (fragment coordinates,
      crash windows, partition windows, straggler factors), each a
      stable ID that names the same event on every re-run;
   2. {e search} — bounded-exhaustive up to [k] simultaneous faults
      (or biased-random under a budget), pruning with state
      fingerprints: two single faults whose executions render
      identically are interchangeable, so only one representative per
      class is paired at k = 2;
   3. {e shrink} — delta-debug a failing schedule to a locally minimal
      one (no single fault can be removed, crash times canonicalized)
      that still fails in the same category;
   4. {e replay} — re-execute the shrunk plan twice and require
      byte-identical renders before emitting a repro.json artifact.

   Everything is driven by the virtual clock and seeded RNG streams, so
   a repro artifact re-executes exactly, on any machine. *)

module Buf = Mpicd_buf.Buf
module Config = Mpicd_simnet.Config
module Fault = Mpicd_simnet.Fault
module Rng = Mpicd_simnet.Rng
module Crc32 = Mpicd_ucx.Crc32
module Ucx = Mpicd_ucx.Ucx
module Json = Mpicd_obs.Json

type fault =
  | F_crash of int * float
  | F_inject of Fault.injection
  | F_partition of Fault.partition
  | F_straggle of int * float

type kind = [ `Crash | `Drop | `Corrupt | `Partition | `Straggle ]

let all_kinds : kind list = [ `Crash; `Drop; `Corrupt; `Partition; `Straggle ]

let kind_of_fault = function
  | F_crash _ -> `Crash
  | F_inject { Fault.inj_kind = Fault.Inj_drop; _ } -> `Drop
  | F_inject { Fault.inj_kind = Fault.Inj_corrupt; _ } -> `Corrupt
  | F_partition _ -> `Partition
  | F_straggle _ -> `Straggle

let kind_of_string = function
  | "crash" -> Some `Crash
  | "drop" -> Some `Drop
  | "corrupt" -> Some `Corrupt
  | "partition" -> Some `Partition
  | "straggle" -> Some `Straggle
  | _ -> None

(* Stable ID of an injection point: names the same event on every
   re-run of the same workload (coordinates, not wall positions). *)
let fault_id = function
  | F_crash (r, t) -> Printf.sprintf "crash:%d@%.0f" r t
  | F_inject i ->
      Printf.sprintf "inj:%s:%d.%d.%d.%d"
        (match i.Fault.inj_kind with
        | Fault.Inj_drop -> "drop"
        | Fault.Inj_corrupt -> "corrupt")
        i.Fault.inj_src i.Fault.inj_dst i.Fault.inj_mseq i.Fault.inj_frag
  | F_partition p ->
      Printf.sprintf "part:%s@%.0f+%.0f"
        (String.concat "." (List.map string_of_int p.Fault.part_group))
        p.Fault.part_start_ns p.Fault.part_dur_ns
  | F_straggle (r, f) -> Printf.sprintf "straggle:%d@%g" r f

(* Schedules are sets: sort by ID before building the plan so the same
   set always renders to the same plan string. *)
let plan_of_schedule (base : Fault.t) sched =
  let sched = List.sort (fun a b -> compare (fault_id a) (fault_id b)) sched in
  List.fold_left
    (fun p f ->
      match f with
      | F_crash (r, t) -> { p with Fault.crashes = p.Fault.crashes @ [ (r, t) ] }
      | F_inject i -> { p with Fault.injections = p.Fault.injections @ [ i ] }
      | F_partition pt ->
          { p with Fault.partitions = p.Fault.partitions @ [ pt ] }
      | F_straggle (r, f) ->
          { p with Fault.stragglers = p.Fault.stragglers @ [ (r, f) ] })
    base sched

let fingerprint render = Printf.sprintf "%08lx" (Crc32.digest (Buf.of_string render))

(* --- recording --- *)

type timeline = {
  tl_points : fault list;  (** candidate single faults, stable order *)
  tl_t0 : float;
  tl_t1 : float;
  tl_reference : Workloads.result;  (** the fault-free run *)
}

(* Evenly sample at most [cap] elements, keeping first and last. *)
let sample_cap cap xs =
  let n = List.length xs in
  if n <= cap then xs
  else
    let arr = Array.of_list xs in
    List.init cap (fun i -> arr.(i * (n - 1) / (cap - 1)))

let dedup_sorted cmp xs =
  let sorted = List.sort_uniq cmp xs in
  sorted

(* How long a transfer can be cut off and still complete within its
   retry budget: the sum of the (clamped) backoff sleeps.  Partition
   windows are sized well under this so a correct stack always rides
   them out. *)
let retry_budget_ns (plan : Fault.t) =
  let rec go a acc =
    if a >= plan.Fault.max_retries then acc
    else go (a + 1) (acc +. Ucx.retx_backoff_ns plan ~attempt:a)
  in
  go 0 0.

let crash_cap_per_rank = 6
let drop_cap = 12
let corrupt_cap = 6

let record (wl : Workloads.t) =
  let probes = ref [] in
  let reference =
    wl.Workloads.wl_run ~tap:(fun p -> probes := p :: !probes)
      wl.Workloads.wl_base
  in
  if reference.Workloads.res_failures <> [] then
    invalid_arg
      ("Explore.record: reference run violates its own oracle: "
      ^ String.concat "; " reference.Workloads.res_failures);
  let probes = List.rev !probes in
  if probes = [] then invalid_arg "Explore.record: reference run sent nothing";
  let times = List.map (fun p -> p.Fault.pb_time) probes in
  let t0 = List.fold_left Float.min (List.hd times) times in
  let t1 = List.fold_left Float.max (List.hd times) times in
  let span = Float.max 1. (t1 -. t0) in
  (* crash candidates: midpoints between a rank's consecutive distinct
     activity times, plus one point past the end (a no-op crash that
     pins the "crash after completion is harmless" corner) *)
  let crash_points =
    List.concat_map
      (fun r ->
        let mine =
          List.filter_map
            (fun p ->
              if p.Fault.pb_src = r || p.Fault.pb_dst = r then
                Some p.Fault.pb_time
              else None)
            probes
          |> dedup_sorted compare
        in
        let rec mids = function
          | a :: (b :: _ as rest) ->
              if b -. a > 1. then ((a +. b) /. 2.) :: mids rest else mids rest
          | _ -> []
        in
        let cands =
          match mine with
          | [] -> []
          | _ ->
              mids mine
              @ [ List.fold_left Float.max (List.hd mine) mine +. 1_000. ]
        in
        List.map
          (fun t -> F_crash (r, Float.round t))
          (sample_cap crash_cap_per_rank cands))
      (List.init wl.Workloads.wl_size (fun r -> r))
  in
  (* fragment coordinates: every first-attempt wire fragment is a
     distinct drop/corrupt point *)
  let coords =
    List.filter_map
      (fun p ->
        match p.Fault.pb_kind with
        | Fault.Pb_frag ->
            Some (p.Fault.pb_src, p.Fault.pb_dst, p.Fault.pb_mseq, p.Fault.pb_frag)
        | Fault.Pb_ack -> None)
      probes
    |> dedup_sorted compare
  in
  let inject kind (src, dst, mseq, frag) =
    F_inject
      {
        Fault.inj_kind = kind;
        inj_src = src;
        inj_dst = dst;
        inj_mseq = mseq;
        inj_frag = frag;
      }
  in
  let drop_points = List.map (inject Fault.Inj_drop) (sample_cap drop_cap coords) in
  let corrupt_points =
    List.map (inject Fault.Inj_corrupt) (sample_cap corrupt_cap coords)
  in
  (* partition windows: isolate each rank at two offsets into the run,
     healing well inside every transfer's retry budget *)
  let budget = retry_budget_ns wl.Workloads.wl_base in
  let part_dur = Float.round (0.3 *. budget) in
  let part_points =
    List.concat_map
      (fun r ->
        List.map
          (fun q ->
            F_partition
              {
                Fault.part_group = [ r ];
                part_start_ns = Float.round (t0 +. (q *. span));
                part_dur_ns = part_dur;
              })
          [ 0.25; 0.6 ])
      (List.init wl.Workloads.wl_size (fun r -> r))
  in
  (* straggler factors kept under the detector's false-positive
     threshold: a correct stack must absorb them silently *)
  let l = wl.Workloads.wl_config.Config.link in
  let hb = wl.Workloads.wl_base.Fault.hb_period_ns in
  let sub_threshold f =
    hb <= 0.
    || f *. 2. *. l.Config.latency_ns <= hb +. (2. *. l.Config.latency_ns)
  in
  let straggle_points =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun f -> if sub_threshold f then Some (F_straggle (r, f)) else None)
          [ 4.; 16. ])
      (List.init wl.Workloads.wl_size (fun r -> r))
  in
  {
    tl_points =
      crash_points @ drop_points @ corrupt_points @ part_points
      @ straggle_points;
    tl_t0 = t0;
    tl_t1 = t1;
    tl_reference = reference;
  }

(* --- search --- *)

type cex = {
  cex_sched : fault list;
  cex_plan : Fault.t;
  cex_failures : string list;
  cex_render : string;
  cex_fingerprint : string;
}

type report = {
  rp_runs : int;  (** executions performed *)
  rp_points : int;  (** injection points recorded *)
  rp_classes : int;  (** distinct k=1 state fingerprints *)
  rp_pruned : int;  (** k=1 points folded into an existing class *)
  rp_truncated : bool;  (** true if the budget cut the sweep short *)
  rp_cexs : cex list;  (** counterexamples, in discovery order *)
}

let category failures =
  match failures with
  | [] -> "none"
  | f :: _ -> ( match String.index_opt f ':' with
      | Some i -> String.sub f 0 i
      | None -> f)

let run_sched (wl : Workloads.t) sched =
  let plan = plan_of_schedule wl.Workloads.wl_base sched in
  (plan, wl.Workloads.wl_run plan)

type mode = Exhaustive | Random

let search ?(k = 2) ?(budget = 400) ?(kinds = all_kinds) ?(mode = Exhaustive)
    ?(seed = 1) (wl : Workloads.t) (tl : timeline) =
  let points =
    List.filter (fun f -> List.mem (kind_of_fault f) kinds) tl.tl_points
  in
  let runs = ref 0 in
  let truncated = ref false in
  let cexs = ref [] in
  let exec sched =
    incr runs;
    let plan, res = run_sched wl sched in
    (if res.Workloads.res_failures <> [] then
       let c =
         {
           cex_sched = sched;
           cex_plan = plan;
           cex_failures = res.Workloads.res_failures;
           cex_render = res.Workloads.res_render;
           cex_fingerprint = fingerprint res.Workloads.res_render;
         }
       in
       cexs := c :: !cexs);
    res
  in
  let classes = Hashtbl.create 64 in
  let pruned = ref 0 in
  (match mode with
  | Exhaustive ->
      (* k = 1: every point, building fingerprint equivalence classes *)
      List.iter
        (fun f ->
          if !runs >= budget then truncated := true
          else
            let res = exec [ f ] in
            let fp = fingerprint res.Workloads.res_render in
            if Hashtbl.mem classes fp then incr pruned
            else Hashtbl.replace classes fp f)
        points;
      (* k = 2: pairs over class representatives only — two faults with
         identical k=1 renders are interchangeable for pairing *)
      if k >= 2 && not !truncated then begin
        let reps = Hashtbl.fold (fun _ f acc -> f :: acc) classes [] in
        let reps =
          List.sort (fun a b -> compare (fault_id a) (fault_id b)) reps
        in
        let rec pairs = function
          | [] -> ()
          | a :: rest ->
              List.iter
                (fun b ->
                  if !runs >= budget then truncated := true
                  else ignore (exec [ a; b ]))
                rest;
              if not !truncated then pairs rest
        in
        pairs reps
      end
  | Random ->
      let rng = Rng.create seed in
      let arr = Array.of_list points in
      if Array.length arr > 0 then
        while !runs < budget do
          let n = 1 + Rng.int rng (Int.max 1 k) in
          let sched = ref [] in
          for _ = 1 to n do
            let f = arr.(Rng.int rng (Array.length arr)) in
            if not (List.exists (fun g -> fault_id g = fault_id f) !sched)
            then sched := f :: !sched
          done;
          ignore (exec !sched)
        done);
  {
    rp_runs = !runs;
    rp_points = List.length points;
    rp_classes = Hashtbl.length classes;
    rp_pruned = !pruned;
    rp_truncated = !truncated;
    rp_cexs = List.rev !cexs;
  }

(* --- shrinking --- *)

(* Delta-debug a failing schedule to local minimality: repeatedly try
   dropping each single fault, keeping any removal that still fails in
   the same category; then canonicalize crash times to the coarsest
   1000 ns grid that preserves the failure.  The result re-runs
   deterministically, so "locally minimal" is a checkable property:
   removing any one remaining fault makes the failure disappear. *)
let shrink (wl : Workloads.t) (c : cex) =
  let cat = category c.cex_failures in
  let fails sched =
    let _, res = run_sched wl sched in
    res.Workloads.res_failures <> [] && category res.Workloads.res_failures = cat
  in
  let rec drop_pass sched =
    let n = List.length sched in
    let rec try_at i =
      if i >= n then sched
      else
        let cand = List.filteri (fun j _ -> j <> i) sched in
        if fails cand then drop_pass cand else try_at (i + 1)
    in
    if n <= 1 then sched else try_at 0
  in
  let sched = drop_pass c.cex_sched in
  let canon_crash f =
    match f with
    | F_crash (r, t) ->
        let t' = Float.round (t /. 1000.) *. 1000. in
        if t' > 0. then F_crash (r, t') else f
    | _ -> f
  in
  let sched =
    List.mapi
      (fun i f ->
        let f' = canon_crash f in
        if f' = f then f
        else
          let cand = List.mapi (fun j g -> if j = i then f' else g) sched in
          if fails cand then f' else f)
      sched
  in
  (* re-run the final schedule to refresh the recorded execution *)
  let plan, res = run_sched wl sched in
  {
    cex_sched = sched;
    cex_plan = plan;
    cex_failures = res.Workloads.res_failures;
    cex_render = res.Workloads.res_render;
    cex_fingerprint = fingerprint res.Workloads.res_render;
  }

(* --- replay --- *)

let replay (wl : Workloads.t) (plan : Fault.t) =
  let r1 = wl.Workloads.wl_run plan in
  let r2 = wl.Workloads.wl_run plan in
  if r1.Workloads.res_render <> r2.Workloads.res_render then
    Error
      (Printf.sprintf "replay diverged:\n--- first\n%s\n--- second\n%s"
         r1.Workloads.res_render r2.Workloads.res_render)
  else Ok r1

(* --- repro artifacts --- *)

let repro_version = "mpicd-explore/1"

let repro_to_json ~(wl : Workloads.t) ~(mutations : string list) (c : cex) =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let str_list xs = String.concat ", " (List.map Json.quote xs) in
  add "{\n";
  add "  \"version\": %s,\n" (Json.quote repro_version);
  add "  \"workload\": %s,\n" (Json.quote wl.Workloads.wl_name);
  add "  \"size\": %s,\n" (Json.number (float_of_int wl.Workloads.wl_size));
  add "  \"plan\": %s,\n" (Json.quote (Fault.to_string c.cex_plan));
  add "  \"faults\": [%s],\n" (str_list (List.map fault_id c.cex_sched));
  add "  \"failure\": %s,\n" (Json.quote (category c.cex_failures));
  add "  \"failures\": [%s],\n" (str_list c.cex_failures);
  add "  \"fingerprint\": %s,\n" (Json.quote c.cex_fingerprint);
  add "  \"render\": %s,\n" (Json.quote c.cex_render);
  add "  \"mutations\": [%s]\n" (str_list mutations);
  add "}\n";
  let s = Buffer.contents b in
  match Json.parse s with
  | Ok _ -> s
  | Error e -> invalid_arg ("Explore.repro_to_json: emitted invalid JSON: " ^ e)

type repro = {
  rj_workload : string;
  rj_size : int;
  rj_plan : Fault.t;
  rj_failure : string;
  rj_fingerprint : string;
  rj_render : string;
  rj_mutations : string list;
}

let repro_of_json s =
  let ( let* ) r f = Result.bind r f in
  let* j = Json.parse s in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "repro.json: missing or bad %S" name)
  in
  let* version = field "version" Json.to_string in
  let* () =
    if version = repro_version then Ok ()
    else Error ("repro.json: unsupported version " ^ version)
  in
  let* workload = field "workload" Json.to_string in
  let* size = field "size" Json.to_number in
  let* plan_s = field "plan" Json.to_string in
  let* plan =
    match Fault.of_string plan_s with
    | Ok p -> Ok p
    | Error e -> Error ("repro.json: bad plan: " ^ e)
  in
  let* failure = field "failure" Json.to_string in
  let* fp = field "fingerprint" Json.to_string in
  let* render = field "render" Json.to_string in
  let* muts = field "mutations" Json.to_list in
  let mutations = List.filter_map Json.to_string muts in
  Ok
    {
      rj_workload = workload;
      rj_size = int_of_float size;
      rj_plan = plan;
      rj_failure = failure;
      rj_fingerprint = fp;
      rj_render = render;
      rj_mutations = mutations;
    }
