(* mpicd-bench: command-line front end for the reproduction benchmarks.

   [figure] regenerates the paper's artifacts (Table I, Figs. 1-10 and
   the ablations) with the calibrated default cost model; the other
   commands expose the cost-model parameters for per-kernel what-if
   runs, e.g.

     mpicd_bench list
     mpicd_bench figure                        # every artifact
     mpicd_bench figure fig7 fig10 --csv results
     mpicd_bench kernel NAS_MG_x --iov-entry-ns 40 --eager-limit 16384 *)

open Cmdliner
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats
module Topology = Mpicd_simnet.Topology
module Report = Mpicd_harness.Report
module H = Mpicd_harness.Harness
module Figures = Mpicd_figures
module Registry = Mpicd_ddtbench.Registry
module Kernel = Mpicd_ddtbench.Kernel

(* The paper's artifacts in regeneration order: key, title, and the
   action that prints the artifact and, given a CSV directory, writes
   [KEY.csv] into it when the artifact has a CSV form. *)
let artifacts =
  let series (key, title, ylabel, f) =
    ( key,
      title,
      fun csv_dir ->
        let series = f () in
        Report.print ~ylabel ~title ~xlabel:"size" series;
        Option.iter
          (fun dir ->
            Report.to_csv
              ~path:(Filename.concat dir (key ^ ".csv"))
              ~xlabel:"size" series)
          csv_dir )
  in
  let table key title print = (key, title, fun _ -> print ()) in
  let module Ddt = Figures.Fig_ddtbench in
  let module Abl = Figures.Ablations in
  [ table "table1" "Table I: Benchmark characteristics" Ddt.print_table1 ]
  @ List.map series (Figures.Fig_rust.all @ Figures.Fig_python.all)
  @ [
      ( "fig10",
        "Fig. 10: DDTBench bandwidth per kernel and method",
        fun csv_dir ->
          Ddt.print_fig10 ();
          Option.iter
            (fun dir ->
              Ddt.fig10_csv ~path:(Filename.concat dir "fig10.csv") ())
            csv_dir );
      table "fig10-extras" "Fig. 10 over the extra kernels" (fun () ->
          Ddt.print_fig10 ~kernels:Registry.extra_kernels ());
    ]
  @ List.map series Abl.all
  @ [
      table "ablation-objmsg"
        "Ablation A5: per-strategy costs for one Python object"
        Abl.print_objmsg_costs;
      table "ablation-threads" "Ablation A6: multithreaded senders"
        Abl.print_threading;
      table "ablation-device" "Ablation A7: device-resident halo exchange"
        Abl.print_device;
      table "ablation-profile"
        "Ablation A8: per-method time attribution on NAS_MG_x"
        Abl.print_profile_shares;
    ]

(* --- cost-model flags --- *)

let config_term =
  let eager =
    Arg.(
      value
      & opt int Config.default.link.eager_limit
      & info [ "eager-limit" ] ~docv:"BYTES"
          ~doc:"Eager/rendezvous protocol switch point.")
  in
  let iov =
    Arg.(
      value
      & opt float Config.default.link.iov_entry_ns
      & info [ "iov-entry-ns" ] ~docv:"NS"
          ~doc:"Per-scatter/gather-entry cost of the iov path.")
  in
  let ddt =
    Arg.(
      value
      & opt float Config.default.cpu.ddt_block_ns
      & info [ "ddt-block-ns" ] ~docv:"NS"
          ~doc:"Per-typemap-block cost of the classic datatype engine.")
  in
  let latency =
    Arg.(
      value
      & opt float Config.default.link.latency_ns
      & info [ "latency-ns" ] ~docv:"NS" ~doc:"One-way link latency.")
  in
  let bw =
    Arg.(
      value
      & opt float Config.default.link.ns_per_byte
      & info [ "ns-per-byte" ] ~docv:"NS" ~doc:"Inverse link bandwidth.")
  in
  let make eager_limit iov_entry_ns ddt_block_ns latency_ns ns_per_byte =
    {
      Config.default with
      link =
        {
          Config.default.link with
          eager_limit;
          iov_entry_ns;
          latency_ns;
          ns_per_byte;
        };
      cpu = { Config.default.cpu with ddt_block_ns };
    }
  in
  Term.(const make $ eager $ iov $ ddt $ latency $ bw)

let faults_term =
  let fault_conv =
    let parse s =
      match Mpicd_simnet.Fault.of_string s with
      | Ok p -> `Ok p
      | Error msg -> `Error msg
    in
    (parse, Mpicd_simnet.Fault.pp)
  in
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Inject faults from $(docv) (e.g. 'seed=3,drop=0.02,corrupt=0.01'); \
           measurements then include the reliable-delivery recovery cost. \
           See docs/FAULTS.md for the plan grammar.")

(* The figure generators bake in Config.default; for the CLI we re-run
   single kernels/methods under the chosen config instead. *)

let list_cmd =
  let run () =
    print_endline "figures / tables:";
    List.iter
      (fun (k, title, _) -> Printf.printf "  %-18s %s\n" k title)
      artifacts;
    print_endline "";
    print_endline "kernels (for `mpicd_bench kernel`):";
    List.iter
      (fun (module K : Kernel.KERNEL) ->
        Printf.printf "  %-18s %7s wire, %s\n" K.name
          (Report.human_bytes K.wire_bytes)
          K.datatypes_desc)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available figures and kernels.")
    Term.(const run $ const ())

let figure_cmd =
  let keys =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"FIGURE"
          ~doc:"Figure keys (see `mpicd_bench list`); none means all of them.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write CSV output into $(docv).")
  in
  (* Every key and the CSV directory are checked before any artifact
     runs, so a bad invocation exits 2 having written nothing. *)
  let run keys csv_dir =
    let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt in
    let selected =
      if keys = [] then artifacts
      else
        List.map
          (fun key ->
            match List.find_opt (fun (k, _, _) -> k = key) artifacts with
            | Some a -> a
            | None -> fail "unknown figure %S (try `mpicd_bench list`)" key)
          keys
    in
    Option.iter
      (fun dir ->
        if not (Sys.file_exists dir && Sys.is_directory dir) then
          try Sys.mkdir dir 0o755
          with Sys_error msg -> fail "mpicd_bench figure: --csv: %s" msg)
      csv_dir;
    if keys = [] then begin
      print_endline "mpicd benchmark suite — regenerating all paper artifacts";
      Format.printf "(cost model: %a)@.@." Config.pp Config.default
    end;
    List.iter (fun (_, _, regenerate) -> regenerate csv_dir) selected
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate figures/tables of the paper.")
    Term.(const run $ keys $ csv)

let kernel_cmd =
  let kernel_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KERNEL" ~doc:"DDTBench kernel name.")
  in
  let reps_arg =
    Arg.(value & opt int 4 & info [ "reps" ] ~docv:"N" ~doc:"Measured rounds.")
  in
  let run config name reps faults =
    match Registry.find name with
    | None ->
        Printf.eprintf "unknown kernel %S (try `mpicd_bench list`)\n" name;
        exit 2
    | Some (module K : Kernel.KERNEL) ->
        let k = (module K : Kernel.KERNEL) in
        let rel = Stats.create () in
        let bw make =
          let r = H.pingpong ~config ~reps ?faults ~bytes:K.wire_bytes make in
          let s = r.H.stats in
          List.iter (fun c -> Stats.add rel c (Stats.get s c)) Stats.all;
          r.H.bandwidth_mib_s
        in
        Format.printf "kernel %s: %s wire bytes, %d blocks@."
          K.name
          (Report.human_bytes K.wire_bytes)
          (Mpicd_datatype.Plan.block_count K.plan);
        Format.printf "cost model: %a@.@." Config.pp config;
        let rows =
          List.map
            (fun (m, make) -> (m, Option.map bw make))
            (Figures.Methods.kernel_methods k (Figures.Methods.slabs k))
        in
        Report.print_kv_table
          ~title:(Printf.sprintf "%s bandwidth (MiB/s)" K.name)
          ~header:[ "method"; "MiB/s" ]
          (List.map
             (fun (m, bw) ->
               [ m; (match bw with None -> "-" | Some b -> Printf.sprintf "%.0f" b) ])
             rows);
        (* A fault-free baseline must report zero retransmits; with
           --faults this summarizes the recovery work across methods. *)
        Format.printf
          "@.reliability: retransmits=%d drops=%d corrupt=%d dups=%d \
           iov_fallbacks=%d flap_waits=%d@."
          (Stats.get rel Retransmits) (Stats.get rel Frags_dropped)
          (Stats.get rel Frags_corrupted) (Stats.get rel Frags_duplicated)
          (Stats.get rel Iov_fallbacks) (Stats.get rel Flap_waits)
  in
  Cmd.v
    (Cmd.info "kernel"
       ~doc:"Run one DDTBench kernel under a configurable cost model.")
    Term.(const run $ config_term $ kernel_arg $ reps_arg $ faults_term)

let scale_cmd =
  let ranks_arg =
    Arg.(
      value & opt int 1024
      & info [ "ranks" ] ~docv:"N" ~doc:"Communicator size.")
  in
  let topology_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "topology" ] ~docv:"KIND"
          ~doc:
            "Network model: $(b,switch), $(b,fattree) or $(b,dragonfly) \
             (default: the flat infinitely-switched wire).")
  in
  let iters_arg =
    Arg.(
      value & opt int 2
      & info [ "iters" ] ~docv:"N" ~doc:"Allreduce rounds to run.")
  in
  let elems_arg =
    Arg.(
      value & opt int 8
      & info [ "elems" ] ~docv:"N" ~doc:"float64 elements per rank.")
  in
  let run config ranks topology iters elems =
    if ranks < 1 then begin
      Printf.eprintf "mpicd_bench scale: --ranks must be >= 1\n";
      exit 2
    end;
    let topo =
      match topology with
      | None -> None
      | Some s -> (
          try Some (Topology.of_string s ~nranks:ranks)
          with Invalid_argument msg ->
            Printf.eprintf "mpicd_bench scale: %s\n" msg;
            exit 2)
    in
    let t0 = Unix.gettimeofday () in
    let r = H.scale_allreduce ~config ?topology:topo ~iters ~elems ~ranks () in
    let wall_s = Unix.gettimeofday () -. t0 in
    Report.print_kv_table
      ~title:
        (Printf.sprintf "%d-rank allreduce x%d over %s" ranks iters r.H.topology)
      ~header:[ "metric"; "value" ]
      [
        [ "virtual time (ms)"; Printf.sprintf "%.3f" (r.H.sim_time_ns /. 1e6) ];
        [ "events scheduled"; string_of_int r.H.events ];
        [ "events pooled"; string_of_int r.H.pooled ];
        [ "peak live events"; string_of_int r.H.max_live ];
        [ "congestion events"; string_of_int r.H.congestion_events ];
        [
          "congestion wait (ms)";
          Printf.sprintf "%.3f" (r.H.congestion_wait_ns /. 1e6);
        ];
        [
          "wall events/sec";
          (if wall_s > 0. then
             Printf.sprintf "%.0f" (float_of_int r.H.events /. wall_s)
           else "-");
        ];
        [ "checksum"; Printf.sprintf "%.1f" r.H.checksum ];
      ]
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Run a large-communicator allreduce over a modeled network topology.")
    Term.(const run $ config_term $ ranks_arg $ topology_arg $ iters_arg
          $ elems_arg)

let () =
  let doc = "mpicd reproduction benchmarks" in
  let info = Cmd.info "mpicd_bench" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; figure_cmd; kernel_cmd; scale_cmd ]))
