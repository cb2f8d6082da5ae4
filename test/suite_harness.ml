(* The experiment harness itself: geomean, sweeps, correctness gating,
   CSV export. *)

module E = Darm_harness.Experiment
module K = Darm_kernels

let check = Alcotest.(check bool)

let test_geomean () =
  Alcotest.(check (float 1e-9)) "empty" 1. (E.geomean []);
  Alcotest.(check (float 1e-9)) "singleton" 2. (E.geomean [ 2. ]);
  Alcotest.(check (float 1e-9)) "2 and 8" 4. (E.geomean [ 2.; 8. ]);
  Alcotest.(check (float 1e-6)) "identity" 1. (E.geomean [ 0.5; 2. ])

let test_sweep_covers_block_sizes () =
  let kernel = K.Sb.sb1 in
  let results = E.sweep ~n:128 kernel in
  Alcotest.(check int)
    "one result per block size"
    (List.length kernel.K.Kernel.block_sizes)
    (List.length results);
  List.iter
    (fun (r : E.result) ->
      check "correct" true r.E.correct;
      check "positive cycles" true (r.E.base.Darm_sim.Metrics.cycles > 0))
    results

let identity = List.assoc "none" E.transforms

let test_identity_transform_is_neutral () =
  let r =
    E.run ~transform:identity K.Sb.sb1 ~block_size:64 ~n:128
  in
  check "no rewrites" true (r.E.rewrites = 0);
  Alcotest.(check (float 1e-9)) "speedup 1.0" 1.0 (E.speedup r);
  check "correct" true r.E.correct

let test_broken_transform_is_detected () =
  (* a transform that corrupts the kernel (changes a constant) must trip
     the built-in equivalence check, never pass silently *)
  let sabotage =
    {
      E.t_name = "sabotage";
      t_apply =
        (fun ?obs:_ ?checked:_ f ->
          let changed = ref 0 in
          Darm_ir.Ssa.iter_instrs f (fun i ->
              if !changed = 0 then
                match i.Darm_ir.Ssa.op, i.Darm_ir.Ssa.operands with
                | Darm_ir.Op.Ibin Darm_ir.Op.Add, [| a; Darm_ir.Ssa.Int k |] ->
                    i.Darm_ir.Ssa.operands <- [| a; Darm_ir.Ssa.Int (k + 1) |];
                    incr changed
                | _ -> ());
          (!changed, None));
    }
  in
  let r = E.run ~transform:sabotage K.Sb.sb1 ~block_size:64 ~n:128 in
  check "sabotage applied" true (r.E.rewrites = 1);
  check "corruption detected" false r.E.correct

let test_csv_export_shape () =
  let r = E.run K.Sb.sb1 ~block_size:64 ~n:128 in
  let row = Darm_harness.Csv_export.result_row r in
  let fields = String.split_on_char ',' row in
  let header_fields =
    String.split_on_char ',' Darm_harness.Csv_export.header
  in
  Alcotest.(check int)
    "row arity matches header" (List.length header_fields)
    (List.length fields);
  check "row names the kernel" true (List.hd fields = "SB1")

let test_registry_tags_unique () =
  let tags = K.Registry.tags () in
  let sorted = List.sort_uniq compare tags in
  Alcotest.(check int) "no duplicate tags" (List.length tags)
    (List.length sorted);
  check "find is case-insensitive" true
    (match K.Registry.find "bit" with
    | Some k -> k.K.Kernel.tag = "BIT"
    | None -> false);
  check "unknown tag" true (K.Registry.find "NOPE" = None)

let test_makespan () =
  let module M = Darm_sim.Metrics in
  let m = M.create () in
  m.M.block_cycles <- [ 10; 20; 30; 40 ];
  m.M.cycles <- 100;
  Alcotest.(check int) "1 cu = total" 100 (M.makespan m ~num_cus:1);
  (* LPT over [40;30;20;10] on 2 CUs: {40,10} {30,20} -> 50 *)
  Alcotest.(check int) "2 cus" 50 (M.makespan m ~num_cus:2);
  (* more CUs than blocks: bounded by the largest block *)
  Alcotest.(check int) "8 cus" 40 (M.makespan m ~num_cus:8)

let test_block_cycles_recorded () =
  let r = E.run ~transform:identity K.Sb.sb1 ~block_size:64 ~n:256 in
  let bc = r.E.base.Darm_sim.Metrics.block_cycles in
  Alcotest.(check int) "one entry per block" 4 (List.length bc);
  Alcotest.(check int) "entries sum to total" r.E.base.Darm_sim.Metrics.cycles
    (List.fold_left ( + ) 0 bc)

(* the memo is keyed on the whole simulator config: a repeated run under
   a non-default model returns the physically same result, whose cycles
   match an observed run (which bypasses the memo), and two warp widths
   never share an entry *)
let test_memo_keyed_on_config () =
  let module Sim = Darm_sim.Simulator in
  let module M = Darm_sim.Metrics in
  let k = K.Sb.sb1 and block_size = 64 and n = 128 in
  let warp32 = { E.sim_config with Sim.warp_size = 32 } in
  let cases =
    [
      ( "hier",
        fun obs ->
          E.run ?obs ~n ~mem_model:(Sim.Hier Sim.default_hier_params) k
            ~block_size );
      ( "its",
        fun obs ->
          E.run ?obs ~n ~reconvergence:(Sim.Its Sim.default_its_params) k
            ~block_size );
      ("warp32", fun obs -> E.run ?obs ~n ~sim:warp32 k ~block_size);
    ]
  in
  List.iter
    (fun (name, run) ->
      let r = run None in
      check (name ^ ": repeat is memoized") true (run None == r);
      let observed = run (Some (Darm_obs.Trace.create ())) in
      check (name ^ ": observed run recomputes") true (observed != r);
      Alcotest.(check (pair int int))
        (name ^ ": cycles match the observed run")
        (observed.E.base.M.cycles, observed.E.opt.M.cycles)
        (r.E.base.M.cycles, r.E.opt.M.cycles))
    cases;
  let w64 = E.run ~n k ~block_size in
  let w32 = E.run ~n ~sim:warp32 k ~block_size in
  check "warp 32 and warp 64 results do not alias" true (w32 != w64);
  check "nor do their baselines" true (w32.E.base != w64.E.base);
  check "an explicit default config shares the default entry" true
    (E.run ~n ~sim:E.sim_config k ~block_size == w64)

(* the one transform table: every name resolves to its own entry, the
   display names (the memo's key) are distinct, the oracle's stages are
   entries of it, and an unknown name gets one error listing them all *)
let test_transform_table () =
  let names = List.map fst E.transforms in
  List.iter
    (fun (name, t) ->
      check (name ^ " resolves to its entry") true
        (match E.transform_of_name name with
        | Ok t' -> t' == t
        | Error _ -> false))
    E.transforms;
  let display = List.map (fun (_, t) -> t.E.t_name) E.transforms in
  Alcotest.(check int) "display names are distinct" (List.length display)
    (List.length (List.sort_uniq compare display));
  List.iter
    (fun (name, t) ->
      check ("oracle stage " ^ name ^ " is a table entry") true
        (match List.assoc_opt name E.transforms with
        | Some t' -> t' == t
        | None -> false))
    Darm_fuzz.Oracle.stages;
  Alcotest.(check (list string)) "oracle stage order"
    [ "cleanups"; "tail-merge"; "branch-fusion"; "darm"; "darm-nounpred" ]
    (List.map fst Darm_fuzz.Oracle.stages);
  match E.transform_of_name "foo" with
  | Ok _ -> Alcotest.fail "an unknown pass must not resolve"
  | Error msg ->
      Alcotest.(check string) "one line naming every entry"
        ("unknown pass \"foo\" (" ^ String.concat "|" names ^ ")")
        msg

(* the batch result cache keys on this string: a parent-filled cache
   keeps hitting only while the default config prints these bytes *)
let test_pass_signature_pinned () =
  Alcotest.(check string) "default config signature"
    "darm|pairing=greedy|threshold=0.1|unpredicate=true|diamonds_only=false|max_iterations=64|run_cleanups=true|if_convert_after=false|validate=none|lat=1,4,16,4,16,2,1,2,24,96,100,8,1"
    (Darm_core.Pass.signature Darm_core.Pass.default_config)

(* a result names what produced it: the pass's stats for a melding
   step (one provenance record per meld), none for the identity, and
   the machine model it ran under *)
let test_result_carries_stats_and_machine () =
  let module Sim = Darm_sim.Simulator in
  let hier = Sim.Hier Sim.default_hier_params in
  let r = E.run ~n:128 ~mem_model:hier K.Sb.sb1 ~block_size:64 in
  (match r.E.pass_stats with
  | None -> Alcotest.fail "DARM must return its pass stats"
  | Some s ->
      Alcotest.(check int) "one provenance record per meld" r.E.rewrites
        (List.length s.Darm_core.Pass.melds));
  check "machine is the run's config" true
    (r.E.machine = { E.sim_config with Sim.mem_model = hier });
  let id =
    E.run ~n:128 ~transform:identity K.Sb.sb1 ~block_size:64
  in
  check "the identity has no pass stats" true (id.E.pass_stats = None);
  let traced =
    E.run ~n:128 ~obs:(Darm_obs.Trace.create ()) K.Sb.sb1 ~block_size:64
  in
  check "machine never carries obs" true (traced.E.machine.Sim.obs = None)

let test_metrics_add () =
  let module M = Darm_sim.Metrics in
  let a = M.create () and b = M.create () in
  a.M.cycles <- 10;
  b.M.cycles <- 5;
  a.M.mem_shared <- 3;
  b.M.mem_shared <- 4;
  M.add a b;
  Alcotest.(check int) "cycles" 15 a.M.cycles;
  Alcotest.(check int) "shared" 7 a.M.mem_shared

let suites =
  [
    ( "harness",
      [
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "sweep coverage" `Quick
          test_sweep_covers_block_sizes;
        Alcotest.test_case "identity transform" `Quick
          test_identity_transform_is_neutral;
        Alcotest.test_case "broken transform detected" `Quick
          test_broken_transform_is_detected;
        Alcotest.test_case "csv row shape" `Quick test_csv_export_shape;
        Alcotest.test_case "registry tags" `Quick test_registry_tags_unique;
        Alcotest.test_case "metrics add" `Quick test_metrics_add;
        Alcotest.test_case "makespan" `Quick test_makespan;
        Alcotest.test_case "block cycles recorded" `Quick
          test_block_cycles_recorded;
        Alcotest.test_case "memo keyed on the simulator config" `Quick
          test_memo_keyed_on_config;
        Alcotest.test_case "transform table: names, stages, unknown" `Quick
          test_transform_table;
        Alcotest.test_case "pass signature pinned" `Quick
          test_pass_signature_pinned;
        Alcotest.test_case "result carries pass stats and machine" `Quick
          test_result_carries_stats_and_machine;
      ] );
  ]
