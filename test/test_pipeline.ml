(* Test runner: simulator, harness, fuzzing, fleet batch, telemetry and
   the whole-pipeline golden tables.  Each Suite_* module contributes
   cases. *)

let () =
  Alcotest.run "darm-pipeline"
    (Suite_sim.suites @ Suite_end2end.suites @ Suite_fuzz.suites
   @ Suite_harness.suites @ Suite_memory.suites @ Suite_parallel.suites
   @ Suite_metrics.suites @ Suite_obs.suites @ Suite_attribution.suites
   @ Suite_gen.suites @ Suite_shrink.suites @ Suite_batch.suites
   @ Suite_mem_model.suites @ Suite_telemetry.suites @ Suite_events.suites
   @ Suite_reconvergence.suites @ Suite_pass_golden.suites
   @ Suite_construction_golden.suites @ Suite_sim_traps.suites
   @ Suite_batch_golden.suites @ Suite_oracle.suites)
