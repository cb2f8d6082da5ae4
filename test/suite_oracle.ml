(* The oracle's fuzz subject from seed to repro.

   [run_subject]'s failure list is pinned in full (stage, kind, detail
   and order) for stages that corrupt the output, raise, fail
   translation validation, fail Verify and trap in the simulator: every
   differential leg, stack or ITS and each warp size, words its crash
   and names its mismatch kind the same way.  The goldens were recorded
   before the legs became one function.

   A subject's failure text depends on its kernel alone, not on how
   much IR the process built before it; [run_seeds] hands back each
   failing subject with its failures, and the minimizer turns one into
   a corpus entry that replays. *)

open Darm_ir
module O = Darm_fuzz.Oracle
module G = Darm_fuzz.Gen
module M = Darm_fuzz.Mutate
module Sh = Darm_fuzz.Shrink
module Corpus = Darm_fuzz.Corpus
module E = Darm_harness.Experiment
module Pass = Darm_core.Pass

let stage name apply =
  ( name,
    { E.t_name = name;
      t_apply = (fun ?obs:_ ?checked:_ f -> apply f; (0, None)) } )

let first_store f =
  Ssa.fold_instrs f
    (fun acc i ->
      match acc with None when i.Ssa.op = Op.Store -> Some i | _ -> acc)
    None

let sabotage =
  [
    (* every i32 store writes 12345 *)
    stage "corrupt" (fun f ->
        Ssa.iter_instrs f (fun i ->
            if
              i.Ssa.op = Op.Store
              && Types.equal (Ssa.value_ty i.Ssa.operands.(0)) Types.I32
            then i.Ssa.operands.(0) <- Ssa.Int 12345));
    stage "raise" (fun _ -> failwith "sabotaged stage");
    stage "reject" (fun _ ->
        raise (Pass.Validation_failed "sabotaged validation"));
    stage "unverifiable" (fun f -> Ssa.append_block f (Ssa.mk_block "orphan"));
    (* the first store writes [sdiv 1, 0] *)
    stage "divzero" (fun f ->
        match first_store f with
        | None -> ()
        | Some st ->
            let d =
              Ssa.mk_instr (Op.Ibin Op.Sdiv) [| Ssa.Int 1; Ssa.Int 0 |] [||]
                Types.I32
            in
            Ssa.insert_before st d;
            st.Ssa.operands.(0) <- Ssa.Instr d);
  ]

let smoke_subject ?inject seed =
  O.subject_of_seed ~cfg:G.smoke_cfg ?inject ~block_size:64 ~seed ()

let lines fls = List.map O.failure_to_string fls

(* (seed, failure lines) of [run_subject ~stages:sabotage] *)
let sabotage_golden =
  [
    ( 0,
      [
        "FAIL subject=fuzz_0 stage=corrupt kind=mismatch :: \
         warp=64 index=128: 1792 vs 12345";
        "FAIL subject=fuzz_0 stage=corrupt kind=mismatch :: \
         warp=16 index=128: 1792 vs 12345";
        "FAIL subject=fuzz_0 stage=corrupt kind=mismatch :: \
         warp=4 index=128: 1792 vs 12345";
        "FAIL subject=fuzz_0 stage=corrupt kind=xmodel :: \
         warp=64 index=128: 1792 vs 12345";
        "FAIL subject=fuzz_0 stage=corrupt kind=xmodel :: \
         warp=16 index=128: 1792 vs 12345";
        "FAIL subject=fuzz_0 stage=corrupt kind=xmodel :: \
         warp=4 index=128: 1792 vs 12345";
        "FAIL subject=fuzz_0 stage=raise kind=crash :: \
         Failure(\"sabotaged stage\")";
        "FAIL subject=fuzz_0 stage=reject kind=tv :: \
         sabotaged validation";
        "FAIL subject=fuzz_0 stage=unverifiable kind=verifier :: \
         block orphan is empty";
        "FAIL subject=fuzz_0 stage=divzero kind=crash :: \
         warp=64: Darm_sim.Simulator.Sim_error(\"sdiv by zero\")";
        "FAIL subject=fuzz_0 stage=divzero kind=crash :: \
         warp=16: Darm_sim.Simulator.Sim_error(\"sdiv by zero\")";
        "FAIL subject=fuzz_0 stage=divzero kind=crash :: \
         warp=4: Darm_sim.Simulator.Sim_error(\"sdiv by zero\")";
        "FAIL subject=fuzz_0 stage=divzero kind=crash :: \
         its warp=64: Darm_sim.Simulator.Sim_error(\"sdiv by zero\")";
        "FAIL subject=fuzz_0 stage=divzero kind=crash :: \
         its warp=16: Darm_sim.Simulator.Sim_error(\"sdiv by zero\")";
        "FAIL subject=fuzz_0 stage=divzero kind=crash :: \
         its warp=4: Darm_sim.Simulator.Sim_error(\"sdiv by zero\")";
      ] );
    ( 1,
      [
        "FAIL subject=fuzz_1 stage=corrupt kind=mismatch :: \
         warp=64 index=128: 964 vs 12345";
        "FAIL subject=fuzz_1 stage=corrupt kind=mismatch :: \
         warp=16 index=128: 964 vs 12345";
        "FAIL subject=fuzz_1 stage=corrupt kind=mismatch :: \
         warp=4 index=128: 964 vs 12345";
        "FAIL subject=fuzz_1 stage=corrupt kind=xmodel :: \
         warp=64 index=128: 964 vs 12345";
        "FAIL subject=fuzz_1 stage=corrupt kind=xmodel :: \
         warp=16 index=128: 964 vs 12345";
        "FAIL subject=fuzz_1 stage=corrupt kind=xmodel :: \
         warp=4 index=128: 964 vs 12345";
        "FAIL subject=fuzz_1 stage=raise kind=crash :: \
         Failure(\"sabotaged stage\")";
        "FAIL subject=fuzz_1 stage=reject kind=tv :: \
         sabotaged validation";
        "FAIL subject=fuzz_1 stage=unverifiable kind=verifier :: \
         block orphan is empty";
        "FAIL subject=fuzz_1 stage=divzero kind=crash :: \
         warp=64: Darm_sim.Simulator.Sim_error(\"sdiv by zero\")";
        "FAIL subject=fuzz_1 stage=divzero kind=crash :: \
         warp=16: Darm_sim.Simulator.Sim_error(\"sdiv by zero\")";
        "FAIL subject=fuzz_1 stage=divzero kind=crash :: \
         warp=4: Darm_sim.Simulator.Sim_error(\"sdiv by zero\")";
        "FAIL subject=fuzz_1 stage=divzero kind=crash :: \
         its warp=64: Darm_sim.Simulator.Sim_error(\"sdiv by zero\")";
        "FAIL subject=fuzz_1 stage=divzero kind=crash :: \
         its warp=16: Darm_sim.Simulator.Sim_error(\"sdiv by zero\")";
        "FAIL subject=fuzz_1 stage=divzero kind=crash :: \
         its warp=4: Darm_sim.Simulator.Sim_error(\"sdiv by zero\")";
      ] );
  ]

let test_sabotage_golden () =
  List.iter
    (fun (seed, golden) ->
      Alcotest.(check (list string))
        (Printf.sprintf "fuzz_%d" seed)
        golden
        (lines (O.run_subject ~stages:sabotage (smoke_subject seed))))
    sabotage_golden

let xrw3 =
  "FAIL subject=fuzz_3+XRW stage=base kind=checker:shared-race-rw :: \
   error[shared-race-rw] @fuzz_3 block if.end: read-write race on shared \
   array %0: instrs if.end#5 (index 1*tid, block if.end) and if.end#8 \
   (index 1*tid + 1, block if.end); e.g. threads 1 and 0 hit the same \
   element with no barrier in between"

let test_history_free_text () =
  let run () = lines (O.run_subject (smoke_subject ~inject:M.Xrw 3)) in
  let alone = run () in
  ignore
    (O.run_seeds ~cfg:G.smoke_cfg ~inject:M.Xrw ~block_size:64
       ~seeds:(Testlib.seeds 0 7) ());
  Alcotest.(check (list string)) "alone" [ xrw3 ] alone;
  Alcotest.(check (list string)) "after other seeds" alone (run ())

let test_failing_subjects () =
  let sum =
    O.run_seeds ~jobs:2 ~cfg:G.smoke_cfg ~inject:M.Xbar ~block_size:64
      ~seeds:(Testlib.seeds 0 5) ()
  in
  Alcotest.(check (list string))
    "one entry per failing subject, in seed order"
    (List.map (Printf.sprintf "fuzz_%d+XBAR") (Testlib.seeds 0 5))
    (List.map (fun ((sb : O.subject), _) -> sb.O.sb_name) sum.O.sm_failing);
  List.iter
    (fun ((sb : O.subject), fls) ->
      Alcotest.(check (list string))
        (sb.O.sb_name ^ ": its own failures")
        (lines (O.run_subject sb))
        (lines fls))
    sum.O.sm_failing;
  let clean =
    O.run_seeds ~cfg:G.smoke_cfg ~block_size:64 ~seeds:(Testlib.seeds 0 3) ()
  in
  Alcotest.(check int) "a clean range has none" 0
    (List.length clean.O.sm_failing)

let test_fresh_kernel () =
  List.iter
    (fun (inject, seed) ->
      let direct =
        let f = G.generate ~cfg:G.smoke_cfg ~seed () in
        Option.iter
          (fun bug ->
            match M.inject bug f with
            | Ok () -> ()
            | Error e -> Alcotest.failf "inject: %s" e)
          inject;
        Printer.func_to_string f
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        direct
        (Printer.func_to_string ((smoke_subject ?inject seed).O.sb_fresh ())))
    (List.concat_map
       (fun inject -> List.map (fun s -> (inject, s)) (Testlib.seeds 0 2))
       (None :: List.map Option.some M.all))

(* what [darm_opt fuzz --smoke --features none --count 1 --inject XBAR
   --minimize --corpus DIR] wrote before the minimizer moved into
   Shrink *)
let xbar0_entry =
  "; darm-corpus-v1 name=fuzz_0-XBAR seed=0 input_seed=0 block_size=64 n=128 \
   expect=fail/base/checker:barrier-divergence\n\
   ; note: shrunk by darm_opt fuzz --minimize in 6 steps\n\
   kernel @fuzz_0(%a: ptr(global), %b: ptr(global)) {\n\
   entry:\n\
  \  %0 = thread.idx\n\
  \  %1 = icmp slt %0, 0\n\
  \  condbr %1, xbar_sync, xbar_join\n\
   xbar_sync:\n\
  \  syncthreads\n\
  \  br xbar_join\n\
   xbar_join:\n\
  \  ret\n\
   }\n"

let test_minimize_round_trip () =
  let cfg = { G.smoke_cfg with G.features = G.no_features } in
  match
    (O.run_seeds ~cfg ~inject:M.Xbar ~block_size:64 ~seeds:[ 0 ] ())
      .O.sm_failing
  with
  | [ (sb, fl :: _) ] -> (
      let r, entry = Sh.minimize_failure sb fl in
      Alcotest.(check int) "blocks" 3 r.Sh.sh_blocks;
      let dir = Filename.concat (Testlib.temp_dir ()) "a/b" in
      let path = Corpus.save ~dir entry in
      Alcotest.(check string) "corpus file" xbar0_entry
        (Darm_obs.Fsio.read_file path);
      match Corpus.load_file path with
      | Error e -> Alcotest.fail e
      | Ok e -> (
          match Corpus.replay e with
          | Ok () -> ()
          | Error e -> Alcotest.failf "replay: %s" e))
  | _ -> Alcotest.fail "expected one failing subject"

let suites =
  [
    ( "oracle",
      [
        Alcotest.test_case "failure lists of sabotaged stages" `Quick
          test_sabotage_golden;
        Alcotest.test_case "failure text is the same alone and after others"
          `Quick test_history_free_text;
        Alcotest.test_case "run_seeds returns each failing subject" `Quick
          test_failing_subjects;
        Alcotest.test_case "sb_fresh is the generated, grafted kernel" `Quick
          test_fresh_kernel;
        Alcotest.test_case "minimize, save nested, replay" `Quick
          test_minimize_round_trip;
      ] );
  ]
