(* mpicd-trace: run one DDTBench kernel pingpong with the observability
   sink attached and export the whole message path as a Perfetto-loadable
   Chrome trace plus metrics dumps, e.g.

     mpicd_trace NAS_MG_x
     mpicd_trace LAMMPS_full --method mpi-ddt --reps 8 --out traces
     mpicd_trace NAS_MG_x --validate        # parse the JSON back, check
                                            # categories and rank tracks *)

open Cmdliner
module Report = Mpicd_harness.Report
module H = Mpicd_harness.Harness
module Figures = Mpicd_figures
module Registry = Mpicd_ddtbench.Registry
module Kernel = Mpicd_ddtbench.Kernel
module Obs = Mpicd_obs.Obs
module Stats = Mpicd_simnet.Stats
module Export = Mpicd_obs.Export
module Json = Mpicd_obs.Json

let methods = Figures.Fig_ddtbench.method_names

let impl_of_method name k =
  let slabs = Figures.Methods.slabs k in
  match List.assoc_opt name (Figures.Methods.kernel_methods k slabs) with
  | Some (Some make) -> Ok make
  | Some None -> Error "custom-regions is impracticable for this kernel"
  | None ->
      Error
        (Printf.sprintf "unknown method %S (one of: %s)" name
           (String.concat ", " methods))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Parse an emitted trace back and check it actually carries the whole
   message path: all four span categories, and at least two rank
   processes (the engine pseudo-process does not count). *)
let validate_chrome path =
  let ( let* ) = Result.bind in
  let* j = Json.parse (read_file path) in
  let* evs =
    match Json.member "traceEvents" j with
    | Some l -> (
        match Json.to_list l with
        | Some evs -> Ok evs
        | None -> Error "traceEvents is not an array")
    | None -> Error "no traceEvents member"
  in
  let cats = Hashtbl.create 8 and rank_pids = Hashtbl.create 8 in
  (* flow pairing: every "s" id must meet exactly one "f" id and vice
     versa; begin/end balance: "B" opens must be closed by "E" on the
     same (pid, tid) row — a finished run exports no dangling spans. *)
  let flow_s = Hashtbl.create 64 and flow_f = Hashtbl.create 64 in
  let open_b = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let str m = Option.bind (Json.member m ev) Json.to_string in
      let num m = Option.bind (Json.member m ev) Json.to_number in
      (match str "cat" with
      | Some c -> Hashtbl.replace cats c ()
      | None -> ());
      (match (str "ph", num "id") with
      | Some "s", Some id ->
          Hashtbl.replace flow_s id (1 + Option.value ~default:0 (Hashtbl.find_opt flow_s id))
      | Some "f", Some id ->
          Hashtbl.replace flow_f id (1 + Option.value ~default:0 (Hashtbl.find_opt flow_f id))
      | _ -> ());
      (match (str "ph", num "pid", num "tid") with
      | Some "B", Some pid, Some tid ->
          Hashtbl.replace open_b (pid, tid)
            (1 + Option.value ~default:0 (Hashtbl.find_opt open_b (pid, tid)))
      | Some "E", Some pid, Some tid ->
          Hashtbl.replace open_b (pid, tid)
            (Option.value ~default:0 (Hashtbl.find_opt open_b (pid, tid)) - 1)
      | _ -> ());
      match (str "ph", num "pid") with
      | Some ("X" | "B" | "i"), Some pid when pid < 1000. ->
          Hashtbl.replace rank_pids pid ()
      | _ -> ())
    evs;
  let missing =
    List.filter
      (fun c -> not (Hashtbl.mem cats c))
      [ "p2p"; "proto"; "callback"; "fiber" ]
  in
  let unpaired =
    Hashtbl.fold
      (fun id n acc ->
        if Option.value ~default:0 (Hashtbl.find_opt flow_f id) <> n then
          id :: acc
        else acc)
      flow_s []
    @ Hashtbl.fold
        (fun id _ acc -> if Hashtbl.mem flow_s id then acc else id :: acc)
        flow_f []
  in
  let unbalanced =
    Hashtbl.fold (fun row n acc -> if n <> 0 then row :: acc else acc) open_b []
  in
  if missing <> [] then
    Error ("missing span categories: " ^ String.concat ", " missing)
  else if Hashtbl.length rank_pids < 2 then
    Error
      (Printf.sprintf "expected >= 2 rank tracks, found %d"
         (Hashtbl.length rank_pids))
  else if unpaired <> [] then
    Error
      (Printf.sprintf "%d unpaired flow event id(s), e.g. %g"
         (List.length unpaired) (List.hd unpaired))
  else if unbalanced <> [] then
    let pid, tid = List.hd unbalanced in
    Error
      (Printf.sprintf "unbalanced B/E spans on %d row(s), e.g. pid=%g tid=%g"
         (List.length unbalanced) pid tid)
  else if Hashtbl.length flow_s = 0 then
    Error "no flow events (expected message arrows from mseq joins)"
  else
    Ok
      (List.length evs, Hashtbl.length cats, Hashtbl.length rank_pids,
       Hashtbl.length flow_s)

let run name meth reps out validate quiet =
  (match Registry.find name with
  | None ->
      Printf.eprintf "unknown kernel %S (try `mpicd_bench list`)\n" name;
      exit 2
  | Some (module K : Kernel.KERNEL) -> (
      match impl_of_method meth (module K : Kernel.KERNEL) with
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
      | Ok make ->
          (try Sys.mkdir out 0o755 with Sys_error _ -> ());
          let obs = Obs.create () in
          let r = H.pingpong ~reps ~obs ~bytes:K.wire_bytes make in
          Stats.publish r.H.stats (Obs.metrics obs);
          let path suffix = Filename.concat out (name ^ suffix) in
          let trace_path = path ".trace.json" in
          Export.write_file trace_path (Export.chrome_trace obs);
          Export.write_file (path ".timeline.txt") (Export.timeline obs);
          Export.write_file (path ".metrics.json")
            (Export.metrics_json (Obs.metrics obs));
          Export.write_file (path ".metrics.csv")
            (Export.metrics_csv (Obs.metrics obs));
          if not quiet then begin
            Printf.printf
              "kernel %s (%s): %d spans, %d instants over %d measured rounds\n"
              K.name meth (Obs.span_count obs) (Obs.instant_count obs) reps;
            Printf.printf "latency %.2f us, bandwidth %.0f MiB/s\n\n"
              r.H.latency_us r.H.bandwidth_mib_s;
            Report.print_metrics ~title:(name ^ " metrics") (Obs.metrics obs);
            Printf.printf "wrote %s (load it at https://ui.perfetto.dev)\n"
              trace_path
          end;
          if validate then
            match validate_chrome trace_path with
            | Ok (nev, ncat, nranks, nflows) ->
                if not quiet then
                  Printf.printf
                    "validate: ok (%d events, %d categories, %d rank tracks, \
                     %d flow pairs)\n"
                    nev ncat nranks nflows
            | Error msg ->
                Printf.eprintf "validate: %s: %s\n" trace_path msg;
                exit 1));
  ()

let cmd =
  let kernel_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KERNEL" ~doc:"DDTBench kernel name (see `mpicd_bench list`).")
  in
  let method_arg =
    Arg.(
      value
      & opt string "custom-pack"
      & info [ "method" ] ~docv:"METHOD"
          ~doc:
            (Printf.sprintf "Transfer method to trace (one of: %s)."
               (String.concat ", " methods)))
  in
  let reps_arg =
    Arg.(value & opt int 4 & info [ "reps" ] ~docv:"N" ~doc:"Measured rounds.")
  in
  let out_arg =
    Arg.(
      value & opt string "."
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Parse the emitted Chrome trace back and fail unless it has \
             all four span categories, at least two rank tracks, every \
             flow event paired, and balanced B/E spans.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Only write files.")
  in
  let doc = "Trace one DDTBench kernel's message path (Perfetto JSON)." in
  Cmd.v
    (Cmd.info "mpicd_trace" ~doc)
    Term.(
      const run $ kernel_arg $ method_arg $ reps_arg $ out_arg $ validate_arg
      $ quiet_arg)

let () = exit (Cmd.eval cmd)
