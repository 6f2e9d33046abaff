(* mpicd-check: static & dynamic analysis front end.

   Runs the five Mpicd_check analyzers —

     1. datatype lint over the DDTBench registry and example-shaped
        derived datatypes,
     2. the performance-guideline checker (normalize + verify + cost
        compare) over the same datatypes,
     3. the custom-callback contract checker over every registry
        kernel's pack and region callback sets,
     4. communication matching over monitored example scenarios,
     5. wait-for-graph deadlock analysis (exercised on the same runs),

   then writes text and JSON reports under --out (default results/):
   check_report.{txt,json} plus guidelines_report.json, the
   guideline-sweep sections alone (the CI artifact).
   Exit status is nonzero iff any Error/Warning finding was produced;
   hints (normalization opportunities) are reported but never fail.

     dune exec bin/mpicd_check.exe -- --out results *)

module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype
module Mpi = Mpicd.Mpi
module Check = Mpicd_check_lib

let out_dir = ref "results"
let seed = ref 0x5eed
let rounds = ref 8
let quiet = ref false
let gl_threshold = ref Mpicd_check_lib.Guideline.default_threshold_ns

let speclist =
  [
    ("--out", Arg.Set_string out_dir, "DIR  report directory (default results)");
    ("--seed", Arg.Set_int seed, "N  fragment-fuzz seed (default 0x5eed)");
    ("--rounds", Arg.Set_int rounds, "N  fuzz rounds per callback set (default 8)");
    ( "--gl-threshold-ns",
      Arg.Set_float gl_threshold,
      "NS  guideline violation threshold (default 500)" );
    ("--quiet", Arg.Set quiet, "  only print the summary line");
  ]

let usage =
  "mpicd_check [--out DIR] [--seed N] [--rounds N] [--gl-threshold-ns NS] \
   [--quiet]"

(* --- example-shaped derived datatypes for the lint --- *)

let example_datatypes =
  let halo_column =
    (* examples/halo_exchange.ml: one ghost column of a 66x66 tile *)
    Dt.vector ~count:64 ~blocklength:1 ~stride:66 Dt.float64
  in
  let spmv_rows =
    (* examples/sparse_spmv.ml-shaped: irregular row fragments *)
    Dt.hindexed
      ~blocklengths:[| 3; 1; 4; 2 |]
      ~displacements_bytes:[| 0; 40; 64; 120 |]
      Dt.float64
  in
  let particle =
    (* examples/particle_exchange.ml-shaped: id + coordinates *)
    Dt.struct_
      ~blocklengths:[| 1; 3 |]
      ~displacements_bytes:[| 0; 8 |]
      ~types:[| Dt.int32; Dt.float64 |]
  in
  [
    ("examples/halo_column", halo_column);
    ("examples/spmv_rows", spmv_rows);
    ("examples/particle", particle);
  ]

(* --- monitored communication scenarios (all expected clean) --- *)

let ring_scenario comm =
  (* nonblocking typed ring shift, examples/quickstart-shaped *)
  let me = Mpi.rank comm and n = Mpi.size comm in
  let dt = Dt.contiguous 16 Dt.float64 in
  let send = Buf.create (16 * 8) and recv = Buf.create (16 * 8) in
  let rs =
    Mpi.isend comm ~dst:((me + 1) mod n) ~tag:7
      (Mpi.Typed { dt; count = 1; base = send })
  in
  let rr =
    Mpi.irecv comm ~source:((me + n - 1) mod n) ~tag:7
      (Mpi.Typed { dt; count = 1; base = recv })
  in
  ignore (Mpi.waitall [ rs; rr ])

let halo_scenario comm =
  (* two ranks trade strided columns, examples/halo_exchange-shaped *)
  let me = Mpi.rank comm in
  let peer = 1 - me in
  let dt = Dt.vector ~count:8 ~blocklength:1 ~stride:10 Dt.float64 in
  let tile = Buf.create (10 * 10 * 8) and ghost = Buf.create (10 * 10 * 8) in
  let r =
    Mpi.irecv comm ~source:peer ~tag:1 (Mpi.Typed { dt; count = 1; base = ghost })
  in
  Mpi.send comm ~dst:peer ~tag:1 (Mpi.Typed { dt; count = 1; base = tile });
  ignore (Mpi.wait r)

let mixed_protocol_scenario comm =
  (* one eager-sized and one rendezvous-sized message per direction,
     wildcard receives: exercises both protocol paths under the monitor *)
  let me = Mpi.rank comm in
  let peer = 1 - me in
  let small = Buf.create 64 and big = Buf.create (256 * 1024) in
  let r1 = Mpi.irecv comm ~tag:1 (Mpi.Bytes (Buf.create 64)) in
  let r2 =
    Mpi.irecv comm ~tag:2
      (Mpi.Typed { dt = Dt.byte; count = 256 * 1024; base = Buf.create (256 * 1024) })
  in
  Mpi.send comm ~dst:peer ~tag:1 (Mpi.Bytes small);
  Mpi.send comm ~dst:peer ~tag:2
    (Mpi.Typed { dt = Dt.byte; count = 256 * 1024; base = big });
  ignore (Mpi.waitall [ r1; r2 ])

let scenarios =
  [
    ("scenario/ring", 4, ring_scenario);
    ("scenario/halo", 2, halo_scenario);
    ("scenario/mixed-protocol", 2, mixed_protocol_scenario);
  ]

let () =
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let guideline_sections =
    [
      Check.Report.section "performance guidelines: ddtbench registry"
        (Check.Registry_check.guideline_kernels ~threshold_ns:!gl_threshold ());
      Check.Report.section "performance guidelines: examples"
        (List.concat_map
           (fun (subject, dt) ->
             Check.Guideline.check ~threshold_ns:!gl_threshold ~subject dt)
           example_datatypes);
    ]
  in
  let sections =
    [
      Check.Report.section "datatype lint: ddtbench registry"
        (Check.Registry_check.lint_kernels ());
      Check.Report.section "datatype lint: examples"
        (List.concat_map
           (fun (subject, dt) -> Check.Dt_lint.lint ~subject dt)
           example_datatypes);
    ]
    @ guideline_sections
    @ [
        Check.Report.section "callback contract: ddtbench registry"
          (Check.Registry_check.contract_kernels ~seed:!seed ~rounds:!rounds ());
      ]
    @ List.map
        (fun (subject, size, f) ->
          let r = Check.Matchcheck.run ~subject ~size f in
          let notes =
            ("deadlocked", string_of_bool r.Check.Matchcheck.deadlocked)
            :: List.map
                 (fun (k, v) -> (k, string_of_int v))
                 r.Check.Matchcheck.counts
          in
          Check.Report.section ~notes
            ("communication match: " ^ subject)
            r.Check.Matchcheck.findings)
        scenarios
  in
  let text = Check.Report.render_text sections in
  let json = Check.Report.render_json sections in
  let rec mkdirs d =
    if not (Sys.file_exists d) then begin
      let parent = Filename.dirname d in
      if parent <> d then mkdirs parent;
      Sys.mkdir d 0o755
    end
  in
  mkdirs !out_dir;
  let write name contents =
    let oc = open_out (Filename.concat !out_dir name) in
    output_string oc contents;
    close_out oc
  in
  write "check_report.txt" text;
  write "check_report.json" json;
  write "guidelines_report.json" (Check.Report.render_json guideline_sections);
  if !quiet then print_endline (Check.Report.summary_line sections)
  else print_string text;
  Printf.printf "reports: %s/check_report.{txt,json}\n" !out_dir;
  if Check.Report.problem_count sections > 0 then exit 1
