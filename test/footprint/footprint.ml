(* Start-up footprint guard.  A process that links the DDTBench kernels
   but runs none of them must not carry their plans: every kernel
   compiles its plan the first time an operation uses it.  At start-up,
   [Registry.all] reaches only the kernels' derived datatypes and
   closures, almost all of it the four index-list types (LAMMPS_full
   and LAMMPS_atomic's hindexed, the two SPECFEM3D indexed_block types:
   about 131,000 words).  Compiling any one large plan at start-up
   exceeds the bound.

   It then runs one NAS_MG_x custom-pack ping-pong and prints the words
   [Registry.all] reaches after it: the kernel's plan, its one layout
   table, is all that run adds.

   Once every kernel is built, its three sizes must agree: [wire_bytes],
   the plan's size and the derived datatype's.

   Exits 1, naming what failed, when a check fails. *)

module Datatype = Mpicd_datatype.Datatype
module Plan = Mpicd_datatype.Plan
module Mpi = Mpicd.Mpi
module Kernel = Mpicd_ddtbench.Kernel
module Registry = Mpicd_ddtbench.Registry

let max_startup_words = 150_000
let reachable () = Obj.reachable_words (Obj.repr Registry.all)

(* One message each way of the kernel's custom-pack datatype. *)
let pingpong (module K : Kernel.KERNEL) =
  let src = K.create () and sink = K.create_sink () in
  let custom obj = Mpi.Custom { dt = K.custom_pack; obj; count = 1 } in
  Mpi.run (Mpi.create_world ~size:2 ()) (fun comm ->
      if Mpi.rank comm = 0 then begin
        Mpi.send comm ~dst:1 ~tag:0 (custom src);
        ignore (Mpi.recv comm ~source:1 ~tag:1 (custom sink))
      end
      else begin
        ignore (Mpi.recv comm ~source:0 ~tag:0 (custom sink));
        Mpi.send comm ~dst:0 ~tag:1 (custom src)
      end)

let () =
  let startup = reachable () in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.eprintf (fmt ^^ "\n%!")
  in
  if startup > max_startup_words then
    fail "registry: %d words reachable at start-up, bound %d" startup
      max_startup_words;
  pingpong (Option.get (Registry.find "NAS_MG_x"));
  let after_pingpong = reachable () in
  List.iter
    (fun (module K : Kernel.KERNEL) ->
      let plan = Plan.size K.plan and derived = Datatype.size K.derived in
      if plan <> K.wire_bytes || derived <> K.wire_bytes then
        fail "%s: wire_bytes %d, plan size %d, derived size %d" K.name
          K.wire_bytes plan derived)
    Registry.all;
  let built = reachable () in
  if built <= startup then
    fail "registry: %d words once built, not more than %d at start-up" built
      startup;
  Printf.printf
    "registry: %d words reachable at start-up (bound %d), %d after one \
     NAS_MG_x ping-pong, %d once every kernel is built\n"
    startup max_startup_words after_pingpong built;
  exit (if !failures = 0 then 0 else 1)
