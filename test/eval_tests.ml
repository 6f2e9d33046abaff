(* What the evaluation is built from: the paper's benchmark types, the
   DDTBench kernels, the figures, and the static and dynamic analyzers.
   See lib_tests.ml for why this run holds "bench_types". *)
let () =
  Alcotest.run "mpicd-eval"
    [
      Test_bench_types.suite;
      Test_ddtbench.suite;
      Test_figures.suite;
      Test_check.suite;
    ]
