(* Table I and Figure 10: the DDTBench subset (paper §V-C). *)

module H = Mpicd_harness.Harness
module Report = Mpicd_harness.Report
module Kernel = Mpicd_ddtbench.Kernel
module Registry = Mpicd_ddtbench.Registry

let reps = 4

let method_names =
  [
    "reference";
    "manual-pack";
    "mpi-ddt";
    "mpi-pack-ddt";
    "custom-pack";
    "custom-regions";
  ]

(* Bandwidth (MiB/s) of one kernel under every method; [None] when the
   method does not apply (regions impracticable).  The methods share
   one slab pair. *)
let kernel_row (module K : Kernel.KERNEL) =
  let k = (module K : Kernel.KERNEL) in
  List.map
    (fun (_, make) ->
      Option.map
        (fun make -> (H.pingpong ~reps ~bytes:K.wire_bytes make).H.bandwidth_mib_s)
        make)
    (Methods.kernel_methods k (Methods.slabs k))

let fig10_rows ?(kernels = Registry.paper_kernels) () =
  List.map
    (fun (module K : Kernel.KERNEL) -> (K.name, K.wire_bytes, kernel_row (module K)))
    kernels

let print_fig10 ?kernels () =
  let rows = fig10_rows ?kernels () in
  let cells =
    List.map
      (fun (name, bytes, bws) ->
        name :: Report.human_bytes bytes
        :: List.map
             (function None -> "-" | Some bw -> Printf.sprintf "%.0f" bw)
             bws)
      rows
  in
  Report.print_kv_table
    ~title:"Fig. 10: DDTBench bandwidth (MiB/s) per kernel and method"
    ~header:("benchmark" :: "size" :: method_names)
    cells

let fig10_csv ~path ?kernels () =
  let rows = fig10_rows ?kernels () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (String.concat "," ("benchmark" :: "bytes" :: method_names));
      output_char oc '\n';
      List.iter
        (fun (name, bytes, bws) ->
          output_string oc
            (String.concat ","
               (name :: string_of_int bytes
               :: List.map
                    (function None -> "" | Some b -> Printf.sprintf "%.1f" b)
                    bws));
          output_char oc '\n')
        rows)

let print_table1 () =
  let rows =
    Registry.table1 Registry.paper_kernels
    |> List.map (fun (a, b, c, d) -> [ a; b; c; d ])
  in
  Report.print_kv_table ~title:"Table I: Benchmark characteristics"
    ~header:[ "Benchmark"; "MPI Datatypes"; "Loop Structure"; "Memory Regions" ]
    rows
