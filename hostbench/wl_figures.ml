(* Workload "figures": regenerate the paper's artifacts in-process and
   compare each with its reference byte-for-byte.

   A piece is a series figure, one Fig. 10 kernel row (the Fig. 10 sweep
   is split per kernel), or the A5 object-strategy table.  One op is one
   piece.  A pass over all 21 pieces takes about 19 s, longer than a
   run, so the timed phase makes whole passes over a fixed core of
   pieces that together take about a second: Figs. 1, 5 and 6 (custom,
   manual and derived-datatype struct transfers), the Fig. 10 rows of
   the four cheapest DDTBench kernels, the ddt and barrier ablations,
   and the A5 table (the three pickle strategies on an 8 MiB object).
   Another pass starts only if a pass as long as the last still ends
   before the deadline, so every run times whole passes.

   A traced run makes at least two passes, recording spans on every
   other one, and then one full pass, which checks all 14 committed
   CSVs and times each artifact. *)

module Report = Mpicd_harness.Report
module Figs = Mpicd_figures
module Registry = Mpicd_ddtbench.Registry
module Kernel = Mpicd_ddtbench.Kernel

type piece = {
  name : string;  (** artifact key, fig10/<kernel> or ablation-objmsg *)
  artifact : string;  (** what the piece is part of *)
  write : string -> unit;  (** generate and write the output to a path *)
  reference : unit -> string;  (** the expected bytes *)
}

let read_file path = In_channel.with_open_bin path In_channel.input_all
let committed artifact = read_file (Filename.concat "results" (artifact ^ ".csv"))

let series_piece (key, _, _, gen) =
  {
    name = key;
    artifact = key;
    write = (fun path -> Report.to_csv ~path ~xlabel:"size" (gen ()));
    reference = (fun () -> committed key);
  }

(* Row [i] of Fig. 10 alone: the reference's header plus its line i+1. *)
let fig10_piece i kernel =
  let module K = (val kernel : Kernel.KERNEL) in
  {
    name = "fig10/" ^ K.name;
    artifact = "fig10";
    write = (fun path -> Figs.Fig_ddtbench.fig10_csv ~path ~kernels:[ kernel ] ());
    reference =
      (fun () ->
        match String.split_on_char '\n' (committed "fig10") with
        | header :: rows when List.length rows > i ->
            header ^ "\n" ^ List.nth rows i ^ "\n"
        | _ -> "<fig10 reference has no row " ^ string_of_int i ^ ">");
  }

(* A5 has no committed CSV; its table is the one EXPERIMENTS.md
   records: messages, peak memory and copies per strategy. *)
let objmsg_piece =
  {
    name = "ablation-objmsg";
    artifact = "ablation-objmsg";
    write =
      (fun path ->
        let bytes, rows = Figs.Ablations.objmsg_costs () in
        Out_channel.with_open_bin path (fun oc ->
            Printf.fprintf oc "bytes,%d\n" bytes;
            List.iter (fun r -> output_string oc (String.concat "," r ^ "\n")) rows));
    reference =
      (fun () ->
        "bytes,8388608\n\
         pickle-basic,1,2.00,2.00\n\
         pickle-oob,66,1.00,0.00\n\
         pickle-oob-cdt,2,1.00,0.00\n");
  }

let all_pieces () =
  List.map series_piece (Figs.Fig_rust.all @ Figs.Fig_python.all)
  @ List.mapi fig10_piece Registry.paper_kernels
  @ List.map series_piece Figs.Ablations.all
  @ [ objmsg_piece ]

let core_names =
  [
    "fig1";
    "fig5";
    "fig6";
    "fig10/LAMMPS_full";
    "fig10/MILC_su3_zdown";
    "fig10/WRF_x_vec";
    "fig10/WRF_y_vec";
    "ablation-ddt";
    "ablation-barrier";
    "ablation-objmsg";
  ]

(* The smoke run regenerates three cheap pieces. *)
let smoke_names = [ "fig1"; "ablation-barrier"; "ablation-objmsg" ]

let run ~smoke ~full ~seconds ~work ~spans =
  let all = all_pieces () in
  let pieces =
    let names = if smoke then smoke_names else core_names in
    List.filter (fun p -> List.mem p.name names) all
  in
  let dir = Filename.concat work "csv" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path_of p =
    Filename.concat dir (String.map (fun c -> if c = '/' then '-' else c) p.name ^ ".csv")
  in
  let fails = Outcome.failures () in
  let attempted = ref 0 in
  (* Generate one piece and check it; returns its host time. *)
  let check rec_ expected p =
    incr attempted;
    let t0 = Timing.now_ns () in
    Spans.wrap rec_ ("figures." ^ p.name) (fun () ->
        Outcome.guarded fails ~what:p.name (fun () ->
            p.write (path_of p);
            if read_file (path_of p) <> List.assq p expected then
              Outcome.failf fails "%s: output differs from its reference" p.name));
    Timing.since_ns t0
  in
  (* Set-up: read the references and the kernel registry, then one
     untimed warm-up generation of the first piece. *)
  let expected = ref [] in
  let setup () =
    let t0 = Timing.now_ns () in
    expected :=
      Spans.wrap spans "figures.read_references" (fun () ->
          List.map (fun p -> (p, p.reference ())) (if full then all else pieces));
    List.iter
      (fun k ->
        let module K = (val k : Kernel.KERNEL) in
        ignore (Sys.opaque_identity (K.name, K.wire_bytes, K.plan)))
      Registry.paper_kernels;
    (* A failing generator fails again, and is counted, as a timed op. *)
    let first = List.hd pieces in
    Spans.wrap spans "figures.warmup" (fun () ->
        try first.write (Filename.concat dir "warmup.csv") with _ -> ());
    Timing.since_ns t0 /. 1e9
  in
  let setup_s = Timing.repeat_setup ~reps:(if smoke then 1 else 21) setup in
  let expected = !expected in
  let ops = ref [] and peak_rss_mb = ref nan in
  let t_start = Timing.now_ns () in
  let min_passes = if Spans.enabled spans then 2 else 1 in
  let passes =
    Timing.passes ~min_passes ~deadline:(t_start +. (seconds *. 1e9)) (fun pass ->
        let rec_ = Spans.alternate spans pass in
        (* Every pass starts from the same live heap. *)
        Gc.full_major ();
        List.iter
          (fun p -> ops := (check rec_ expected p, Spans.enabled rec_) :: !ops)
          pieces;
        if pass = 0 then peak_rss_mb := Timing.peak_rss_mb ())
  in
  let measured_s = Timing.since_ns t_start /. 1e9 in
  let per_artifact =
    if not full then []
    else begin
      let times = List.map (fun p -> (p, check spans expected p)) all in
      List.sort_uniq compare (List.map (fun p -> p.artifact) all)
      |> List.map (fun a ->
             ( "figures." ^ a ^ "_s",
               List.fold_left
                 (fun acc (p, ns) -> if p.artifact = a then acc +. (ns /. 1e9) else acc)
                 0. times ))
    end
  in
  let ops = Array.of_list (List.rev !ops) in
  {
    Outcome.setup_s = Array.of_list setup_s;
    ops_ns = Array.map fst ops;
    traced = Array.map snd ops;
    batch = List.length pieces;
    measured_s;
    attempted = !attempted;
    peak_rss_mb = !peak_rss_mb;
    failed = fails.Outcome.count;
    errors = Outcome.errors fails;
    extra = ("figures.passes", float_of_int passes) :: per_artifact;
  }
