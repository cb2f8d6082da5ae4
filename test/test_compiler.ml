(* Test runner: IR, analyses, transforms, melding, checkers, the
   regression corpus and metric percentiles.  Each Suite_* module
   contributes cases. *)

let () =
  Alcotest.run "darm-compiler"
    (Suite_ir.suites @ Suite_analysis.suites @ Suite_align.suites
   @ Suite_transforms.suites @ Suite_melding.suites @ Suite_unroll.suites
   @ Suite_parser.suites @ Suite_properties.suites @ Suite_meld_ir.suites
   @ Suite_regions.suites @ Suite_dsl.suites @ Suite_frontend.suites
   @ Suite_hip_kernels.suites @ Suite_i32.suites @ Suite_checks.suites
   @ Suite_corpus.suites @ Suite_incremental.suites
   @ Suite_percentiles.suites @ Suite_dominance.suites
   @ Suite_cfg_index.suites)
