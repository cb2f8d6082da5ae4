(* Region machinery unit tests: edge splitting, exit/entry
   normalization, subgraph cut points, side closure — on hand-built and
   DSL-built CFGs. *)

open Darm_ir
module A = Darm_analysis
module C = Darm_core
module D = Dsl

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* entry --c--> (l | r) both -> join(phi) -> ret *)
let diamond_with_phi () =
  let f = Ssa.mk_func "d" [] in
  let e = Ssa.mk_block "entry"
  and l = Ssa.mk_block "l"
  and r = Ssa.mk_block "r"
  and j = Ssa.mk_block "join" in
  List.iter (Ssa.append_block f) [ e; l; r; j ];
  let tid = Ssa.mk_instr Op.Thread_idx [||] [||] Types.I32 in
  Ssa.append_instr e tid;
  let c =
    Ssa.mk_instr (Op.Icmp Op.Islt) [| Ssa.Instr tid; Ssa.Int 3 |] [||] Types.I1
  in
  Ssa.append_instr e c;
  Ssa.append_instr e
    (Ssa.mk_instr Op.Condbr [| Ssa.Instr c |] [| l; r |] Types.Void);
  Ssa.append_instr l (Ssa.mk_instr Op.Br [||] [| j |] Types.Void);
  Ssa.append_instr r (Ssa.mk_instr Op.Br [||] [| j |] Types.Void);
  let phi = Ssa.mk_instr Op.Phi [||] [||] Types.I32 in
  Ssa.append_instr j phi;
  Ssa.set_phi_incoming phi [ (Ssa.Int 1, l); (Ssa.Int 2, r) ];
  Ssa.append_instr j (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  (f, e, l, r, j, phi)

let test_split_edges_merges_phis () =
  let f, _, l, r, j, phi = diamond_with_phi () in
  let q = C.Simplify_region.split_edges f ~srcs:[ l; r ] ~dest:j ~name:"q" in
  Verify.run_exn f;
  (* j's phi now has a single incoming, from q; q holds the merged phi *)
  check_int "one incoming" 1 (List.length (Ssa.phi_incoming phi));
  (match Ssa.phi_incoming phi with
  | [ (Ssa.Instr merged, blk) ] ->
      check "incoming from q" true (blk.Ssa.bid = q.Ssa.bid);
      check "merged is a phi" true (merged.Ssa.op = Op.Phi);
      check_int "merged has both values" 2
        (List.length (Ssa.phi_incoming merged))
  | _ -> Alcotest.fail "expected a single merged incoming");
  (* l and r now branch to q *)
  check "l rewired" true
    (match Ssa.successors l with [ s ] -> s.Ssa.bid = q.Ssa.bid | _ -> false);
  check "r rewired" true
    (match Ssa.successors r with [ s ] -> s.Ssa.bid = q.Ssa.bid | _ -> false)

let test_split_single_edge_keeps_value () =
  let f, _, l, _, j, phi = diamond_with_phi () in
  ignore (C.Simplify_region.split_edges f ~srcs:[ l ] ~dest:j ~name:"q");
  Verify.run_exn f;
  (* the value stays inline: no merged phi needed for one source *)
  check_int "still two incomings" 2 (List.length (Ssa.phi_incoming phi));
  check "value 1 preserved" true
    (List.exists
       (fun (v, _) -> Ssa.value_equal v (Ssa.Int 1))
       (Ssa.phi_incoming phi))

let detect_first f =
  let dvg = A.Divergence.compute f in
  let dt = A.Domtree.compute f in
  let pdt = A.Domtree.compute_post f in
  ( List.fold_left
      (fun acc b ->
        match acc with
        | Some _ -> acc
        | None -> C.Region.detect dvg dt pdt b)
      None
      (A.Cfg.reachable_blocks f),
    pdt )

(* multi-subgraph side: two sequential if-thens inside the true path *)
let multi_subgraph_func () =
  D.build_kernel ~name:"multi" ~params:[ ("a", Types.Ptr Types.Global) ]
    (fun ctx params ->
      let a = List.hd params in
      let tid = D.tid ctx in
      let g = D.gep ctx a tid in
      let side () =
        D.if_then ctx (D.slt ctx (D.load ctx g) (D.i32 10)) (fun () ->
            D.store ctx (D.i32 1) g);
        D.if_then ctx (D.sgt ctx (D.load ctx g) (D.i32 90)) (fun () ->
            D.store ctx (D.i32 2) g)
      in
      D.if_ ctx (D.eq ctx (D.and_ ctx tid (D.i32 1)) (D.i32 0)) side side)

let test_cut_points_order () =
  let f = multi_subgraph_func () in
  let r, pdt = detect_first f in
  match r with
  | None -> Alcotest.fail "no region"
  | Some r ->
      let ts = C.Region.true_subgraphs pdt r in
      (* two if-then regions and their join blocks *)
      check "at least 3 subgraphs" true (List.length ts >= 3);
      (* first subgraph entry is the true successor *)
      check "first entry is t_succ" true
        ((List.hd ts).C.Region.sg_entry.Ssa.bid = r.C.Region.r_t_succ.Ssa.bid);
      (* subgraphs are disjoint and ordered: each entry post-dominates the
         previous entry *)
      let rec ordered = function
        | a :: (b :: _ as rest) ->
            A.Domtree.dominates pdt b.C.Region.sg_entry a.C.Region.sg_entry
            && ordered rest
        | _ -> true
      in
      check "post-dominance order" true (ordered ts);
      (* block sets are disjoint *)
      let seen = Hashtbl.create 16 in
      List.iter
        (fun sg ->
          List.iter
            (fun b ->
              check "disjoint subgraphs" false (Hashtbl.mem seen b.Ssa.bid);
              Hashtbl.replace seen b.Ssa.bid ())
            (C.Region.subgraph_block_list sg))
        ts

let test_normalize_exit_dedicated_block () =
  let f = multi_subgraph_func () in
  let r, pdt = detect_first f in
  match r with
  | None -> Alcotest.fail "no region"
  | Some r ->
      let sg = List.hd (C.Region.true_subgraphs pdt r) in
      let sg = C.Simplify_region.normalize_exit f sg in
      Verify.run_exn f;
      let src = sg.C.Region.sg_exit_src in
      check "exit src is dedicated" true
        ((Ssa.terminator src).Ssa.op = Op.Br);
      check "exit src in subgraph" true (C.Region.in_subgraph sg src);
      check_int "single exit edge" 1
        (List.length (C.Simplify_region.exit_sources sg))

let test_normalize_entry_splits_condbr_pred () =
  let f = multi_subgraph_func () in
  let r, pdt = detect_first f in
  match r with
  | None -> Alcotest.fail "no region"
  | Some r ->
      let sg = List.hd (C.Region.true_subgraphs pdt r) in
      let sg = C.Simplify_region.normalize_exit f sg in
      let _, pre = C.Simplify_region.normalize_entry f sg in
      Verify.run_exn f;
      (* the region entry ends in condbr, so a fresh pre block must have
         been inserted, ending in an unconditional branch *)
      check "pre is unconditional" true ((Ssa.terminator pre).Ssa.op = Op.Br);
      check "pre is not the region entry" true
        (pre.Ssa.bid <> r.C.Region.r_entry.Ssa.bid)

let test_region_sides_exclude_exit () =
  let f = multi_subgraph_func () in
  let r, _ = detect_first f in
  match r with
  | None -> Alcotest.fail "no region"
  | Some r ->
      check "exit not in true side" false
        (List.exists
           (fun b -> b.Ssa.bid = r.C.Region.r_exit.Ssa.bid)
           r.C.Region.r_t_side);
      check "entry not in sides" false
        (List.exists
           (fun b -> b.Ssa.bid = r.C.Region.r_entry.Ssa.bid)
           (r.C.Region.r_t_side @ r.C.Region.r_f_side))

let test_isomorphism_rejects_swapped_arms () =
  (* same shapes but with the conditional arms swapped: the edge-ordered
     isomorphism must still match entry-to-entry (condbr arms correspond
     positionally), so a T-side if-then whose *false* arm leaves cannot
     match an F-side if-then whose *true* arm leaves *)
  let f =
    D.build_kernel ~name:"swapped" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let tid = D.tid ctx in
        let g = D.gep ctx a tid in
        D.if_ ctx
          (D.eq ctx (D.and_ ctx tid (D.i32 1)) (D.i32 0))
          (fun () ->
            D.if_then ctx (D.slt ctx (D.load ctx g) (D.i32 10)) (fun () ->
                D.store ctx (D.i32 1) g))
          (fun () ->
            (* if_ with an empty then-side: the store is on the false arm *)
            D.if_ ctx
              (D.slt ctx (D.load ctx g) (D.i32 10))
              (fun () -> ())
              (fun () -> D.store ctx (D.i32 1) g)))
  in
  let r, pdt = detect_first f in
  match r with
  | None -> Alcotest.fail "no region"
  | Some r -> (
      let ts = C.Region.true_subgraphs pdt r in
      let fs = C.Region.false_subgraphs pdt r in
      let st = List.hd ts and sf = List.hd fs in
      (* sizes differ (2 vs 3 blocks) or the match fails on arm order;
         either way the pair must be rejected *)
      match C.Isomorphism.match_subgraphs st sf with
      | None -> ()
      | Some _ ->
          check "sizes happen to match" true
            (C.Region.subgraph_size st = C.Region.subgraph_size sf))

let suites =
  [
    ( "regions",
      [
        Alcotest.test_case "split_edges merges phis" `Quick
          test_split_edges_merges_phis;
        Alcotest.test_case "split single edge" `Quick
          test_split_single_edge_keeps_value;
        Alcotest.test_case "cut-point order" `Quick test_cut_points_order;
        Alcotest.test_case "normalize_exit" `Quick
          test_normalize_exit_dedicated_block;
        Alcotest.test_case "normalize_entry" `Quick
          test_normalize_entry_splits_condbr_pred;
        Alcotest.test_case "sides exclude entry/exit" `Quick
          test_region_sides_exclude_exit;
        Alcotest.test_case "isomorphism arm order" `Quick
          test_isomorphism_rejects_swapped_arms;
      ] );
  ]
