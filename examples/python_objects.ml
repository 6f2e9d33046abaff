(* Python-object messaging: the mpi4py scenario of the paper's §V-B.

   Sends a "simulation checkpoint" — a nested Python-style object with
   several NumPy arrays — under the three pickle strategies and prints
   what each one costs in messages, copies and peak memory.

   Run with:  dune exec examples/python_objects.exe *)

module Buf = Mpicd_buf.Buf
module P = Mpicd_pickle.Pickle
module Mpi = Mpicd.Mpi
module Stats = Mpicd_simnet.Stats
module Objmsg = Mpicd_objmsg.Objmsg

let checkpoint () =
  let field name bytes =
    (P.Str name, P.Ndarray (P.ndarray ~dtype:P.F64 [| bytes / 8 |]))
  in
  P.Dict
    [
      (P.Str "step", P.Int 128L);
      (P.Str "time", P.Float 3.14);
      (P.Str "comment", P.Str "checkpoint after equilibration");
      field "density" (2 * 1024 * 1024);
      field "velocity_x" (2 * 1024 * 1024);
      field "velocity_y" (2 * 1024 * 1024);
      (P.Str "tags", P.List [ P.Str "prod"; P.Str "v2"; P.Bool true ]);
    ]

let run strategy =
  let world = Mpi.create_world ~size:2 () in
  let obj = checkpoint () in
  let ok = ref false in
  Mpi.run world (fun comm ->
      if Mpi.rank comm = 0 then Objmsg.send strategy comm ~dst:1 ~tag:0 obj
      else begin
        let got, st = Objmsg.recv strategy comm ~source:0 ~tag:0 () in
        ok := P.equal obj got;
        ignore st
      end);
  let stats = Mpi.world_stats world in
  let payload = P.payload_bytes obj in
  Printf.printf "%-16s delivered=%-5b messages=%-3d copies=%5.2fx payload  peak-mem=%5.2fx payload\n"
    (Objmsg.strategy_name strategy) !ok (Stats.get stats Messages_sent)
    (float_of_int (Stats.get stats Bytes_copied) /. float_of_int payload)
    (float_of_int stats.peak_alloc_bytes /. float_of_int payload)

let () =
  let obj = checkpoint () in
  Printf.printf "checkpoint object: %d nodes, %d payload bytes\n\n"
    (P.visit_count obj) (P.payload_bytes obj);
  List.iter run [ Objmsg.Pickle_basic; Objmsg.Pickle_oob; Objmsg.Pickle_oob_cdt ];
  print_newline ();
  print_endline
    "pickle-basic packs everything into one stream (2x memory, 2x copies);";
  print_endline
    "pickle-oob avoids the copies but needs one MPI message per buffer;";
  print_endline
    "pickle-oob-cdt gets both: zero-copy and a single data message via the";
  print_endline "custom datatype API.";
