(* Differential fuzzing: generated structured divergent kernels
   ({!Darm_fuzz.Gen}) must behave identically before and after every
   transformation.  The untransformed simulation is the oracle, so this
   covers the whole pipeline end to end with no hand-written
   expectations.

   Seed ranges, transform thunks and the oracle-backed runner live in
   {!Testlib} and are shared with the generative-conformance suites
   (suite_gen, suite_shrink, suite_corpus). *)

module Gen = Darm_fuzz.Gen
module Oracle = Darm_fuzz.Oracle
module C = Darm_core
module CK = Darm_checks
open Testlib

let small_cfg = gen_small_cfg

let no_shared_cfg =
  { small_cfg with
    Gen.features = { Gen.all_features with shared_tile = false } }

let run_seeds ~name ~transform ~seeds () =
  run_gen_seeds ~cfg:small_cfg ~name ~transform ~seeds ()

let suites =
  [
    ( "fuzz",
      [
        Alcotest.test_case "darm on random kernels" `Quick
          (run_seeds ~name:"darm" ~transform:darm ~seeds:(seeds 0 39));
        Alcotest.test_case "darm without unpredication" `Quick
          (run_seeds ~name:"darm-no-unpred" ~transform:darm_no_unpred
             ~seeds:(seeds 40 59));
        Alcotest.test_case "branch fusion on random kernels" `Quick
          (run_seeds ~name:"fusion" ~transform:fusion ~seeds:(seeds 60 79));
        Alcotest.test_case "tail merging on random kernels" `Quick
          (run_seeds ~name:"tail-merge" ~transform:tail_merge
             ~seeds:(seeds 80 99));
        Alcotest.test_case "cleanup pipeline on random kernels" `Quick
          (run_seeds ~name:"cleanups" ~transform:cleanups
             ~seeds:(seeds 100 119));
        Alcotest.test_case "full pipeline on random kernels" `Quick
          (run_seeds ~name:"everything" ~transform:everything
             ~seeds:(seeds 120 149));
        Alcotest.test_case "darm, deep nesting" `Quick
          (fun () ->
            let deep =
              { small_cfg with Gen.max_depth = 4; stmts_per_block = 2 }
            in
            run_gen_seeds ~cfg:deep ~name:"deep" ~transform:darm
              ~seeds:(seeds 300 314) ());
        Alcotest.test_case "darm, no shared memory" `Quick
          (fun () ->
            run_gen_seeds ~cfg:no_shared_cfg ~name:"no-shared"
              ~transform:darm ~seeds:(seeds 320 334) ());
        Alcotest.test_case "darm, partial warp (block 32 on warp 64)"
          `Quick
          (fun () ->
            run_gen_seeds ~cfg:small_cfg ~block_size:32 ~name:"partial-warp"
              ~transform:darm ~seeds:(seeds 340 354) ());
        Alcotest.test_case "alignment pairing on random kernels" `Quick
          (fun () ->
            let transform f =
              ignore
                (C.Pass.run
                   ~config:{ C.Pass.default_config with pairing = C.Pass.Alignment }
                   ~checked:true f)
            in
            run_gen_seeds ~cfg:small_cfg ~name:"alignment" ~transform
              ~seeds:(seeds 360 374) ());
        Alcotest.test_case "checker cross-validation vs schedule" `Quick
          (fun () ->
            (* Cross-validate the race checker's sound verdict against
               the simulator: a kernel the checker proves race-free must
               produce schedule-independent output.  Warp size is the
               schedule knob — it changes which threads run in lockstep
               and therefore the interleaving of memory accesses.  The
               oracle's darm stage runs exactly that check: no checker
               error before melding and none new after it (melding runs
               as a checked pass, so the TV hook is exercised on
               random kernels too), and the same memory at warp sizes
               64, 16 and 4, before and after melding. *)
            let darm_stage =
              List.filter (fun (name, _) -> name = "darm") Oracle.stages
            in
            List.iter
              (fun seed ->
                let subject =
                  Oracle.subject_of_seed ~cfg:no_shared_cfg ~block_size:64
                    ~seed ()
                in
                let report =
                  CK.Checker.check_func (subject.Oracle.sb_fresh ())
                in
                if report.CK.Checker.verdict <> CK.Race_check.Proved_free
                then
                  Alcotest.failf "seed %d: expected proved-free, got %s" seed
                    (CK.Race_check.verdict_to_string
                       report.CK.Checker.verdict);
                match Oracle.run_subject ~stages:darm_stage subject with
                | [] -> ()
                | fs ->
                    Alcotest.failf "seed %d:\n%s" seed
                      (String.concat "\n"
                         (List.map Oracle.failure_to_string fs)))
              (seeds 400 411));
        Alcotest.test_case "printer-parser roundtrip on random kernels"
          `Quick
          (fun () ->
            List.iter
              (fun seed ->
                let f = Gen.generate ~cfg:small_cfg ~seed () in
                let text = Darm_ir.Printer.func_to_string f in
                match Darm_ir.Parser.parse_func text with
                | Ok f2 ->
                    Darm_ir.Verify.run_exn f2;
                    let text2 = Darm_ir.Printer.func_to_string f2 in
                    Alcotest.(check string)
                      (Printf.sprintf "roundtrip seed %d" seed)
                      text text2
                | Error e ->
                    Alcotest.failf "seed %d: parse error: %s" seed e)
              (seeds 0 19));
      ] );
  ]
