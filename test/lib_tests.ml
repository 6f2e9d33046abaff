(* The library: the transport and MPI layers, what is built directly
   on them and their fault tolerance, then buffers, the simulation
   engine, datatypes and their plans, and the serializers.  The MPI
   suites run first, so the collectives' GC-count guards run in a
   process the data-layer suites have not grown.

   Alcotest pads every name to the longest suite name in its run and
   cuts a test's description at 80 columns, so each executable holds an
   11-character suite name ("collectives" here, "bench_types" in
   eval_tests) to print every test under the name it had when all the
   suites shared one executable. *)
let () =
  Alcotest.run "mpicd-lib"
    [
      Test_ucx.suite;
      Test_obs.suite;
      Test_core.suite;
      Test_objmsg.suite;
      Test_collectives.suite;
      Test_capi.suite;
      Test_typed_mpi.suite;
      Test_threaded.suite;
      Test_device.suite;
      Test_faults.suite;
      Test_resilience.suite;
      Test_restart.suite;
      Test_explore.suite;
      Test_buf.suite;
      Test_simnet.suite;
      Test_datatype.suite;
      Test_plan.suite;
      Test_normalize.suite;
      Test_derive.suite;
      Test_pickle.suite;
      Test_serde.suite;
    ]
