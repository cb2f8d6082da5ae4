(* Region detection, subgraph decomposition, isomorphism, profitability
   and the melding pass at the IR level. *)

open Darm_ir
module A = Darm_analysis
module C = Darm_core
module D = Dsl

let check = Alcotest.(check bool)

(* SB2-shaped divergent region builder used across these tests *)
let if_then_region_func () =
  D.build_kernel ~name:"sb2ish"
    ~params:[ ("a", Types.Ptr Types.Global); ("p", Types.Ptr Types.Global) ]
    (fun ctx params ->
      let a, p = match params with [ a; p ] -> (a, p) | _ -> assert false in
      let t = D.tid ctx in
      let ga = D.gep ctx a t in
      let gp = D.gep ctx p t in
      D.if_ ctx
        (D.eq ctx (D.and_ ctx t (D.i32 1)) (D.i32 0))
        (fun () ->
          let v = D.load ctx ga in
          D.if_then ctx (D.slt ctx v (D.i32 100)) (fun () ->
              D.store ctx (D.add ctx v (D.i32 1)) ga))
        (fun () ->
          let v = D.load ctx gp in
          D.if_then ctx (D.slt ctx v (D.i32 100)) (fun () ->
              D.store ctx (D.add ctx v (D.i32 1)) gp)))

let detect_region f =
  let dvg = A.Divergence.compute f in
  let dt = A.Domtree.compute f in
  let pdt = A.Domtree.compute_post f in
  let r =
    List.fold_left
      (fun acc b ->
        match acc with
        | Some _ -> acc
        | None -> C.Region.detect dvg dt pdt b)
      None
      (A.Cfg.reachable_blocks f)
  in
  (r, pdt)

let test_detect_meldable_region () =
  let f = if_then_region_func () in
  let r, _ = detect_region f in
  check "region found" true (r <> None)

let test_if_then_not_meldable () =
  (* if-then without else: the false successor post-dominates the true *)
  let f =
    D.build_kernel ~name:"ifthen" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        D.if_then ctx
          (D.eq ctx (D.and_ ctx t (D.i32 1)) (D.i32 0))
          (fun () -> D.store ctx (D.i32 1) (D.gep ctx a t)))
  in
  let r, _ = detect_region f in
  check "no meldable region" true (r = None)

let test_uniform_region_not_detected () =
  let f =
    D.build_kernel ~name:"uni"
      ~params:[ ("a", Types.Ptr Types.Global); ("n", Types.I32) ]
      (fun ctx params ->
        let a, n = match params with [ a; n ] -> (a, n) | _ -> assert false in
        let t = D.tid ctx in
        D.if_ ctx
          (D.slt ctx n (D.i32 0))
          (fun () -> D.store ctx (D.i32 1) (D.gep ctx a t))
          (fun () -> D.store ctx (D.i32 2) (D.gep ctx a t)))
  in
  let r, _ = detect_region f in
  check "uniform branch not a divergent region" true (r = None)

let test_subgraph_decomposition () =
  let f = if_then_region_func () in
  let r, pdt = detect_region f in
  match r with
  | None -> Alcotest.fail "no region"
  | Some r ->
      let ts = C.Region.true_subgraphs pdt r in
      let fs = C.Region.false_subgraphs pdt r in
      (* each side: the if-then region [cond+then] then the join block *)
      check "true side has >= 2 subgraphs" true (List.length ts >= 2);
      check "false side same count" true
        (List.length ts = List.length fs);
      let first = List.hd ts in
      check "first subgraph has 2 blocks" true
        (C.Region.subgraph_size first = 2)

let test_isomorphism_match () =
  let f = if_then_region_func () in
  let r, pdt = detect_region f in
  match r with
  | None -> Alcotest.fail "no region"
  | Some r ->
      let ts = C.Region.true_subgraphs pdt r in
      let fs = C.Region.false_subgraphs pdt r in
      let st = List.hd ts and sf = List.hd fs in
      (match C.Isomorphism.match_subgraphs st sf with
      | None -> Alcotest.fail "expected isomorphic subgraphs"
      | Some pairs ->
          check "pairs cover subgraph" true
            (List.length pairs = C.Region.subgraph_size st);
          (* first pair must be the two entries *)
          let e1, e2 = List.hd pairs in
          check "entry pair" true
            (e1.Ssa.bid = st.C.Region.sg_entry.Ssa.bid
            && e2.Ssa.bid = sf.C.Region.sg_entry.Ssa.bid));
      (* a 2-block subgraph cannot match a 1-block one *)
      let single = List.nth ts 1 in
      check "size mismatch rejected" true
        (C.Isomorphism.match_subgraphs single sf = None
        || C.Region.subgraph_size single = C.Region.subgraph_size sf)

let test_profitability_identical_blocks () =
  let lat = A.Latency.default in
  let f = if_then_region_func () in
  let r, pdt = detect_region f in
  match r with
  | None -> Alcotest.fail "no region"
  | Some r ->
      let st = List.hd (C.Region.true_subgraphs pdt r) in
      let sf = List.hd (C.Region.false_subgraphs pdt r) in
      (match C.Isomorphism.match_subgraphs st sf with
      | None -> Alcotest.fail "not isomorphic"
      | Some pairs ->
          let p = C.Profitability.fp_s lat pairs in
          (* identical instruction mix: profitability near the 0.5 optimum *)
          check "profitability ~0.5" true (p > 0.45 && p <= 0.5))

let test_fp_b_identical_profile () =
  let lat = A.Latency.default in
  let mk_blk () =
    let b = Ssa.mk_block "b" in
    let i1 = Ssa.mk_instr (Op.Ibin Op.Add) [| Ssa.Int 1; Ssa.Int 2 |] [||] Types.I32 in
    let i2 = Ssa.mk_instr (Op.Ibin Op.Mul) [| Ssa.Instr i1; Ssa.Int 2 |] [||] Types.I32 in
    Ssa.append_instr b i1;
    Ssa.append_instr b i2;
    Ssa.append_instr b (Ssa.mk_instr Op.Br [||] [| b |] Types.Void);
    b
  in
  let b1 = mk_blk () and b2 = mk_blk () in
  Alcotest.(check (float 0.001)) "0.5 for identical profiles" 0.5
    (C.Profitability.fp_b lat b1 b2)

let test_fp_b_disjoint_profile () =
  let lat = A.Latency.default in
  let b1 = Ssa.mk_block "b1" in
  Ssa.append_instr b1
    (Ssa.mk_instr (Op.Ibin Op.Add) [| Ssa.Int 1; Ssa.Int 2 |] [||] Types.I32);
  Ssa.append_instr b1 (Ssa.mk_instr Op.Br [||] [| b1 |] Types.Void);
  let b2 = Ssa.mk_block "b2" in
  Ssa.append_instr b2
    (Ssa.mk_instr (Op.Fbin Op.Fadd) [| Ssa.Float 1.; Ssa.Float 2. |] [||] Types.F32);
  Ssa.append_instr b2 (Ssa.mk_instr Op.Br [||] [| b2 |] Types.Void);
  (* only the branch class is shared *)
  check "low profitability" true (C.Profitability.fp_b lat b1 b2 < 0.4)

let test_pass_melds_if_then_region () =
  let f = if_then_region_func () in
  let stats = C.Pass.run ~verify_each:true f in
  check "at least one meld" true (stats.C.Pass.melds_applied >= 1);
  Verify.run_exn f

let test_pass_leaves_uniform_code_alone () =
  let f =
    D.build_kernel ~name:"uni2"
      ~params:[ ("a", Types.Ptr Types.Global); ("n", Types.I32) ]
      (fun ctx params ->
        let a, n = match params with [ a; n ] -> (a, n) | _ -> assert false in
        let t = D.tid ctx in
        D.if_ ctx
          (D.slt ctx n (D.i32 0))
          (fun () -> D.store ctx (D.i32 1) (D.gep ctx a t))
          (fun () -> D.store ctx (D.i32 2) (D.gep ctx a t)))
  in
  let before = Printer.func_to_string f in
  let stats = C.Pass.run ~verify_each:true f in
  check "no melds" true (stats.C.Pass.melds_applied = 0);
  Alcotest.(check string) "IR unchanged" before (Printer.func_to_string f)

let test_pass_respects_threshold () =
  let f = if_then_region_func () in
  let config =
    { C.Pass.default_config with threshold = 0.99 (* nothing reaches this *) }
  in
  let stats = C.Pass.run ~config ~verify_each:true f in
  check "no melds above impossible threshold" true
    (stats.C.Pass.melds_applied = 0)

let test_branch_fusion_rejects_complex () =
  (* branch fusion only handles diamonds; the SB2 shape must be skipped *)
  let f = if_then_region_func () in
  let stats =
    C.Pass.run ~config:C.Pass.branch_fusion_config ~verify_each:true f
  in
  check "no fusion on complex CF" true (stats.C.Pass.melds_applied = 0)

let test_branch_fusion_handles_diamond () =
  let f = Testlib.diamond_func () in
  let stats =
    C.Pass.run ~config:C.Pass.branch_fusion_config ~verify_each:true f
  in
  check "diamond fused" true (stats.C.Pass.melds_applied >= 1);
  Verify.run_exn f

let test_meld_stats_accounting () =
  let f = if_then_region_func () in
  let stats = C.Pass.run ~verify_each:true f in
  let m = stats.C.Pass.meld_stats in
  check "melded pairs counted" true (m.C.Meld.melded_pairs > 0)

let suites =
  [
    ( "melding",
      [
        Alcotest.test_case "detect meldable region" `Quick
          test_detect_meldable_region;
        Alcotest.test_case "if-then not meldable" `Quick
          test_if_then_not_meldable;
        Alcotest.test_case "uniform region not detected" `Quick
          test_uniform_region_not_detected;
        Alcotest.test_case "subgraph decomposition" `Quick
          test_subgraph_decomposition;
        Alcotest.test_case "isomorphism match" `Quick test_isomorphism_match;
        Alcotest.test_case "profitability identical" `Quick
          test_profitability_identical_blocks;
        Alcotest.test_case "fp_b identical profile" `Quick
          test_fp_b_identical_profile;
        Alcotest.test_case "fp_b disjoint profile" `Quick
          test_fp_b_disjoint_profile;
        Alcotest.test_case "pass melds if-then region" `Quick
          test_pass_melds_if_then_region;
        Alcotest.test_case "pass leaves uniform code" `Quick
          test_pass_leaves_uniform_code_alone;
        Alcotest.test_case "pass respects threshold" `Quick
          test_pass_respects_threshold;
        Alcotest.test_case "branch fusion rejects complex" `Quick
          test_branch_fusion_rejects_complex;
        Alcotest.test_case "branch fusion handles diamond" `Quick
          test_branch_fusion_handles_diamond;
        Alcotest.test_case "meld stats" `Quick test_meld_stats_accounting;
      ] );
  ]
