(* mpicd-profile: run one DDTBench kernel pingpong with the
   observability sink attached and run the Scalasca-style automatic
   trace analysis over it — wait-state classification, critical path,
   per-phase and per-datatype attribution, e.g.

     mpicd_profile NAS_MG_x
     mpicd_profile LAMMPS_full --method mpi-ddt --reps 8 --out profiles
     mpicd_profile NAS_MG_x --faults 'seed=3,drop=0.02' --top 3
     mpicd_profile NAS_MG_x --validate   # re-parse profile.json, check
                                         # schema + exact conservation *)

open Cmdliner
module H = Mpicd_harness.Harness
module Figures = Mpicd_figures
module Registry = Mpicd_ddtbench.Registry
module Kernel = Mpicd_ddtbench.Kernel
module Obs = Mpicd_obs.Obs
module Export = Mpicd_obs.Export
module Profile = Mpicd_obs.Profile
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

let sum_phases (pt : Profile.phase_totals) =
  List.fold_left Int64.add 0L
    [ pt.pack; pt.wire; pt.unpack; pt.wait; pt.callback; pt.other ]

let sum_waits (wt : Profile.wait_totals) =
  List.fold_left Int64.add 0L
    [
      wt.late_sender; wt.late_receiver; wt.barrier; wt.rndv_stall;
      wt.retransmit_stall; wt.wait_other;
    ]

(* The analyzer's central invariant, checked as Int64 equalities (no
   rounding slack): every rank's phases tile its window, wait classes
   tile the wait phase, and the critical path tiles the window. *)
let check_conservation (p : Profile.t) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun (r : Profile.rank_profile) ->
      if sum_phases r.phases <> r.total_ps then
        err "rank %d: phases sum %Ld ps <> total %Ld ps" r.rank
          (sum_phases r.phases) r.total_ps;
      if sum_waits r.waits <> r.phases.wait then
        err "rank %d: wait classes sum %Ld ps <> wait phase %Ld ps" r.rank
          (sum_waits r.waits) r.phases.wait;
      if sum_waits r.cp_waits <> r.cp_phases.wait then
        err "rank %d: critical-path wait classes do not tile its wait phase"
          r.rank)
    p.ranks;
  let cp_total =
    List.fold_left
      (fun acc (r : Profile.rank_profile) ->
        Int64.add acc (sum_phases r.cp_phases))
      0L p.ranks
  in
  if p.ranks <> [] && cp_total <> p.window_ps then
    err "critical path sums to %Ld ps <> window %Ld ps" cp_total p.window_ps;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " es)

(* Re-parse the emitted JSON and check the document shape. *)
let validate_json path (p : Profile.t) =
  let ( let* ) = Result.bind in
  let* j = Json.parse (read_file path) in
  let str m = Option.bind (Json.member m j) Json.to_string in
  let* () =
    match str "schema" with
    | Some "mpicd-profile/1" -> Ok ()
    | Some s -> Error (Printf.sprintf "unexpected schema %S" s)
    | None -> Error "no schema member"
  in
  let* ranks =
    match Option.bind (Json.member "ranks" j) Json.to_list with
    | Some l -> Ok l
    | None -> Error "no ranks array"
  in
  let* () =
    if List.length ranks = List.length p.ranks then Ok ()
    else Error "ranks array length mismatch"
  in
  let* () =
    let missing =
      List.filter
        (fun m -> Json.member m j = None)
        [ "window_ns"; "critical_path"; "messages"; "datatypes" ]
    in
    if missing = [] then Ok ()
    else Error ("missing members: " ^ String.concat ", " missing)
  in
  let* () =
    match
      List.find_opt
        (fun r ->
          List.exists
            (fun m -> Json.member m r = None)
            [ "rank"; "total_ns"; "phases"; "waits"; "critical_path" ])
        ranks
    with
    | None -> Ok ()
    | Some _ -> Error "a rank object is missing members"
  in
  Ok (List.length ranks)

let run name meth reps faults out top validate quiet =
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
          let r, p = H.pingpong_profiled ~reps ?faults ~bytes:K.wire_bytes make in
          let path suffix = Filename.concat out (name ^ suffix) in
          let json_path = path ".profile.json" in
          Export.write_file json_path (Profile.to_json p);
          Export.write_file (path ".profile.txt") (Profile.report ~top p);
          Export.write_file (path ".profile.folded") (Profile.folded p);
          if not quiet then begin
            Printf.printf "kernel %s (%s): latency %.2f us, bandwidth %.0f MiB/s\n"
              K.name meth r.H.latency_us r.H.bandwidth_mib_s;
            Printf.printf "pack share %.1f%%, wait share %.1f%%\n\n"
              (100. *. Profile.pack_share p)
              (100. *. Profile.wait_share p);
            print_string (Profile.report ~top p);
            Printf.printf "\nwrote %s\n" json_path
          end;
          if validate then begin
            (match check_conservation p with
            | Ok () -> ()
            | Error msg ->
                Printf.eprintf "validate: conservation: %s\n" msg;
                exit 1);
            match validate_json json_path p with
            | Ok nranks ->
                if not quiet then
                  Printf.printf
                    "validate: ok (conservation exact, %d rank objects)\n"
                    nranks
            | Error msg ->
                Printf.eprintf "validate: %s: %s\n" json_path msg;
                exit 1
          end));
  ()

let faults_term =
  let fault_conv =
    let parse s =
      match Mpicd_simnet.Fault.of_string s with
      | Ok pl -> `Ok pl
      | Error msg -> `Error msg
    in
    (parse, Mpicd_simnet.Fault.pp)
  in
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Inject faults from $(docv); the profile then shows the \
           retransmit/backoff stalls the recovery created.")

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
            (Printf.sprintf "Transfer method to profile (one of: %s)."
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
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N" ~doc:"Datatypes listed in the report.")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Check the Int64 conservation invariants (phases tile each \
             rank's window, critical path tiles the window) and re-parse \
             the emitted profile.json against its schema.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Only write files.")
  in
  let doc =
    "Wait-state and critical-path profile of one DDTBench kernel run."
  in
  Cmd.v
    (Cmd.info "mpicd_profile" ~doc)
    Term.(
      const run $ kernel_arg $ method_arg $ reps_arg $ faults_term $ out_arg
      $ top_arg $ validate_arg $ quiet_arg)

let () = exit (Cmd.eval cmd)
