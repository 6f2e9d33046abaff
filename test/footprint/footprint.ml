(* Start-up footprint guard.  A process that links the DDTBench kernels
   but runs none of them must not carry their block tables or plans:
   every kernel builds its table and compiles its plan the first time
   an operation uses it.  At start-up, [Registry.all] reaches only the
   kernels' derived datatypes and closures, almost all of it the four
   index-list types (LAMMPS_full and LAMMPS_atomic's hindexed, the two
   SPECFEM3D indexed_block types: about 131,000 words).  Building any
   one large table or plan at start-up exceeds the bound.

   Once every kernel is built, its four sizes must agree: the blocks'
   total, [wire_bytes], the plan's size and the derived datatype's.

   Exits 1, naming what failed, when either check fails. *)

module Datatype = Mpicd_datatype.Datatype
module Plan = Mpicd_datatype.Plan
module Blocks = Mpicd_ddtbench.Blocks
module Kernel = Mpicd_ddtbench.Kernel
module Registry = Mpicd_ddtbench.Registry

let max_startup_words = 150_000
let reachable () = Obj.reachable_words (Obj.repr Registry.all)

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
  List.iter
    (fun (module K : Kernel.KERNEL) ->
      let total = Blocks.total K.blocks and plan = Plan.size K.plan in
      let derived = Datatype.size K.derived in
      if total <> K.wire_bytes || plan <> K.wire_bytes || derived <> K.wire_bytes
      then
        fail "%s: blocks total %d, wire_bytes %d, plan size %d, derived size %d"
          K.name total K.wire_bytes plan derived)
    Registry.all;
  let built = reachable () in
  if built <= startup then
    fail "registry: %d words once built, not more than %d at start-up" built
      startup;
  Printf.printf
    "registry: %d words reachable at start-up (bound %d), %d once every \
     kernel is built\n"
    startup max_startup_words built;
  exit (if !failures = 0 then 0 else 1)
