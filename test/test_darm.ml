(* Test-suite entry point: each Suite_* module contributes cases. *)

let () =
  Alcotest.run "darm"
    (Suite_ir.suites @ Suite_analysis.suites @ Suite_align.suites
   @ Suite_transforms.suites @ Suite_melding.suites @ Suite_sim.suites
   @ Suite_end2end.suites @ Suite_fuzz.suites @ Suite_unroll.suites @ Suite_parser.suites @ Suite_properties.suites @ Suite_meld_ir.suites @ Suite_regions.suites @ Suite_dsl.suites @ Suite_harness.suites @ Suite_frontend.suites @ Suite_hip_kernels.suites @ Suite_memory.suites @ Suite_i32.suites @ Suite_parallel.suites
   @ Suite_metrics.suites @ Suite_obs.suites @ Suite_checks.suites
   @ Suite_attribution.suites @ Suite_gen.suites @ Suite_shrink.suites
   @ Suite_corpus.suites @ Suite_batch.suites @ Suite_mem_model.suites
   @ Suite_incremental.suites @ Suite_telemetry.suites
   @ Suite_events.suites @ Suite_reconvergence.suites
   @ Suite_dominance.suites @ Suite_pass_golden.suites
   @ Suite_construction_golden.suites @ Suite_sim_traps.suites
   @ Suite_batch_golden.suites @ Suite_oracle.suites
   @ Suite_cfg_index.suites)
