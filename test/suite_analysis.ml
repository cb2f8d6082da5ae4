(* Dominators, post-dominators, loops, divergence analysis. *)

open Darm_ir
module A = Darm_analysis
module D = Dsl

let check = Alcotest.(check bool)

(* Hand-built diamond CFG: entry -> (t | f) -> join -> ret *)
let diamond_cfg () =
  let f = Ssa.mk_func "d" [] in
  let e = Ssa.mk_block "entry"
  and t = Ssa.mk_block "t"
  and fl = Ssa.mk_block "f"
  and j = Ssa.mk_block "join" in
  List.iter (Ssa.append_block f) [ e; t; fl; j ];
  let tidi = Ssa.mk_instr Op.Thread_idx [||] [||] Types.I32 in
  Ssa.append_instr e tidi;
  let c =
    Ssa.mk_instr (Op.Icmp Op.Islt) [| Ssa.Instr tidi; Ssa.Int 3 |] [||]
      Types.I1
  in
  Ssa.append_instr e c;
  Ssa.append_instr e
    (Ssa.mk_instr Op.Condbr [| Ssa.Instr c |] [| t; fl |] Types.Void);
  Ssa.append_instr t (Ssa.mk_instr Op.Br [||] [| j |] Types.Void);
  Ssa.append_instr fl (Ssa.mk_instr Op.Br [||] [| j |] Types.Void);
  Ssa.append_instr j (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  (f, e, t, fl, j)

let test_domtree_diamond () =
  let f, e, t, fl, j = diamond_cfg () in
  let dt = A.Domtree.compute f in
  check "entry dom t" true (A.Domtree.dominates dt e t);
  check "entry dom join" true (A.Domtree.dominates dt e j);
  check "t not dom join" false (A.Domtree.dominates dt t j);
  check "reflexive" true (A.Domtree.dominates dt t t);
  check "strict" false (A.Domtree.strictly_dominates dt t t);
  check "idom of join is entry" true
    (match A.Domtree.idom dt j with Some b -> b.Ssa.bid = e.Ssa.bid | None -> false);
  check "idom of t is entry" true
    (match A.Domtree.idom dt t with Some b -> b.Ssa.bid = e.Ssa.bid | None -> false);
  ignore fl

let test_postdom_diamond () =
  let f, e, t, fl, j = diamond_cfg () in
  let pdt = A.Domtree.compute_post f in
  check "join pdom entry" true (A.Domtree.dominates pdt j e);
  check "join pdom t" true (A.Domtree.dominates pdt j t);
  check "t not pdom f" false (A.Domtree.dominates pdt t fl);
  check "ipdom of entry is join" true
    (match A.Domtree.idom pdt e with
    | Some b -> b.Ssa.bid = j.Ssa.bid
    | None -> false)

let test_domtree_loop () =
  (* entry -> head <-> body; head -> exit *)
  let f =
    D.build_kernel ~name:"lp" ~params:[ ("n", Types.I32) ]
      (fun ctx params ->
        let n = List.hd params in
        D.for_up ctx ~from:(D.i32 0) ~until:n (fun _ -> ()))
  in
  let dt = A.Domtree.compute f in
  let head = List.find (fun b -> b.Ssa.bname = "while.head") f.Ssa.blocks_list in
  let body = List.find (fun b -> b.Ssa.bname = "while.body") f.Ssa.blocks_list in
  let exit_ = List.find (fun b -> b.Ssa.bname = "while.end") f.Ssa.blocks_list in
  check "head dom body" true (A.Domtree.dominates dt head body);
  check "head dom exit" true (A.Domtree.dominates dt head exit_);
  check "body not dom exit" false (A.Domtree.dominates dt body exit_);
  let li = A.Loops.compute f in
  check "one loop" true (List.length li.A.Loops.loops = 1);
  let l = List.hd li.A.Loops.loops in
  check "header" true (l.A.Loops.header.Ssa.bid = head.Ssa.bid);
  check "body in loop" true (A.Loops.in_loop l body);
  check "exit not in loop" false (A.Loops.in_loop l exit_);
  check "depth" true (A.Loops.loop_depth li body = 1);
  check "exit depth" true (A.Loops.loop_depth li exit_ = 0)

let test_nested_loops () =
  let f =
    D.build_kernel ~name:"lp2" ~params:[ ("n", Types.I32) ]
      (fun ctx params ->
        let n = List.hd params in
        D.for_up ctx ~name:"i" ~from:(D.i32 0) ~until:n (fun _ ->
            D.for_up ctx ~name:"j" ~from:(D.i32 0) ~until:n (fun _ -> ())))
  in
  let li = A.Loops.compute f in
  check "two loops" true (List.length li.A.Loops.loops = 2);
  check "max depth 2" true
    (List.exists (fun l -> l.A.Loops.depth = 2) li.A.Loops.loops)

let test_divergence_tid () =
  let f, e, _, _, j = diamond_cfg () in
  let dvg = A.Divergence.compute f in
  check "branch divergent" true (A.Divergence.is_divergent_branch dvg e);
  ignore j

let test_divergence_uniform_branch () =
  (* branch on a parameter: uniform *)
  let f =
    D.build_kernel ~name:"u" ~params:[ ("n", Types.I32) ]
      (fun ctx params ->
        let n = List.hd params in
        D.if_ ctx (D.slt ctx n (D.i32 5)) (fun () -> ()) (fun () -> ()))
  in
  let dvg = A.Divergence.compute f in
  check "no divergent branches" true
    (A.Divergence.divergent_branches dvg f = [])

let test_divergence_sync_dependence () =
  (* r is assigned under a divergent branch: the join phi is divergent *)
  let f = Testlib.diamond_func () in
  let dvg = A.Divergence.compute f in
  let join = List.find (fun b -> b.Ssa.bname = "if.end") f.Ssa.blocks_list in
  List.iter
    (fun phi ->
      check "join phi divergent" true (A.Divergence.is_divergent_instr dvg phi))
    (Ssa.phis join)

let test_divergence_loop_dependent () =
  (* loop bound depends on tid: the exit branch is divergent *)
  let f =
    D.build_kernel ~name:"ld" ~params:[]
      (fun ctx _ ->
        let t = D.tid ctx in
        let acc = D.local ctx ~name:"acc" Types.I32 in
        D.set ctx acc (D.i32 0);
        D.for_up ctx ~from:(D.i32 0) ~until:t (fun _ ->
            D.set ctx acc (D.add ctx (D.get ctx acc) (D.i32 1)));
        ignore (D.get ctx acc))
  in
  let dvg = A.Divergence.compute f in
  check "loop branch divergent" true
    (A.Divergence.divergent_branches dvg f <> [])

let test_uniform_load_uniform_addr () =
  (* load at a uniform address is uniform; at tid it is divergent *)
  let f =
    D.build_kernel ~name:"lu" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let u = D.load ctx (D.gep ctx a (D.i32 0)) in
        let d = D.load ctx (D.gep ctx a (D.tid ctx)) in
        ignore u;
        ignore d)
  in
  let dvg = A.Divergence.compute f in
  let loads =
    Ssa.fold_instrs f
      (fun acc i -> if i.Ssa.op = Op.Load then i :: acc else acc)
      []
  in
  match List.rev loads with
  | [ u; d ] ->
      check "uniform load" false (A.Divergence.is_divergent_instr dvg u);
      check "divergent load" true (A.Divergence.is_divergent_instr dvg d)
  | _ -> Alcotest.fail "expected two loads"

let test_latency_model () =
  let c = A.Latency.default in
  let mk op operands ty = Ssa.mk_instr op operands [||] ty in
  let shared_ptr = Ssa.Undef (Types.Ptr Types.Shared) in
  let global_ptr = Ssa.Undef (Types.Ptr Types.Global) in
  let flat_ptr = Ssa.Undef (Types.Ptr Types.Flat) in
  let l_sh = A.Latency.of_instr c (mk Op.Load [| shared_ptr |] Types.I32) in
  let l_gl = A.Latency.of_instr c (mk Op.Load [| global_ptr |] Types.I32) in
  let l_fl = A.Latency.of_instr c (mk Op.Load [| flat_ptr |] Types.I32) in
  let l_add =
    A.Latency.of_instr c (mk (Op.Ibin Op.Add) [| Ssa.Int 1; Ssa.Int 2 |] Types.I32)
  in
  check "alu < shared" true (l_add < l_sh);
  check "shared < global" true (l_sh < l_gl);
  check "global <= flat" true (l_gl <= l_fl);
  check "store space keyed by ptr" true
    (A.Latency.of_instr c (mk Op.Store [| Ssa.Int 0; shared_ptr |] Types.Void)
    = l_sh);
  check "class distinguishes spaces" true
    (A.Latency.class_of (mk Op.Load [| shared_ptr |] Types.I32)
    <> A.Latency.class_of (mk Op.Load [| global_ptr |] Types.I32))

let test_sync_joins_no_postdom () =
  (* divergent branch straight to two separate rets: the branch block
     has no real immediate post-dominator, so sync_joins must fall back
     to every multi-pred block reachable from it (here the inner
     diamond's join) rather than returning nothing *)
  let f = Ssa.mk_func "sj" [] in
  let e = Ssa.mk_block "entry"
  and t = Ssa.mk_block "t"
  and ta = Ssa.mk_block "ta"
  and tb = Ssa.mk_block "tb"
  and tj = Ssa.mk_block "tj"
  and fl = Ssa.mk_block "f" in
  List.iter (Ssa.append_block f) [ e; t; ta; tb; tj; fl ];
  let tidi = Ssa.mk_instr Op.Thread_idx [||] [||] Types.I32 in
  Ssa.append_instr e tidi;
  let c =
    Ssa.mk_instr (Op.Icmp Op.Islt) [| Ssa.Instr tidi; Ssa.Int 3 |] [||]
      Types.I1
  in
  Ssa.append_instr e c;
  Ssa.append_instr e
    (Ssa.mk_instr Op.Condbr [| Ssa.Instr c |] [| t; fl |] Types.Void);
  Ssa.append_instr t
    (Ssa.mk_instr Op.Condbr [| Ssa.Bool true |] [| ta; tb |] Types.Void);
  Ssa.append_instr ta (Ssa.mk_instr Op.Br [||] [| tj |] Types.Void);
  Ssa.append_instr tb (Ssa.mk_instr Op.Br [||] [| tj |] Types.Void);
  Ssa.append_instr tj (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  Ssa.append_instr fl (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  Verify.run_exn f;
  let pdt = A.Domtree.compute_post f in
  check "entry has no real ipdom" true (A.Domtree.idom pdt e = None);
  (match A.Divergence.sync_joins pdt e with
  | [ b ] -> check "fallback join is tj" true (b.Ssa.bid = tj.Ssa.bid)
  | joins ->
      Alcotest.failf "expected exactly one fallback join, got %d"
        (List.length joins));
  (* and the fallback feeds the divergence fixpoint: tj has no phis
     here, but the branch itself must still be divergent *)
  let dvg = A.Divergence.compute f in
  check "branch divergent" true (A.Divergence.is_divergent_branch dvg e)

let test_divergence_temporal () =
  (* x is 0 before and 1 inside a loop whose trip count depends on tid.
     Both incomings of the header phi are uniform constants, yet the
     value is divergent: threads exit the loop at different iterations
     (temporal divergence), so after the loop x differs per thread. *)
  let f =
    D.build_kernel ~name:"tmp" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let x = D.local ctx ~name:"x" Types.I32 in
        D.set ctx x (D.i32 0);
        let i = D.local ctx ~name:"i" Types.I32 in
        D.set ctx i (D.i32 0);
        D.while_ ctx
          (fun () -> D.slt ctx (D.get ctx i) t)
          (fun () ->
            D.set ctx x (D.i32 1);
            D.set ctx i (D.add ctx (D.get ctx i) (D.i32 1)));
        D.store ctx (D.get ctx x) (D.gep ctx a t))
  in
  let dvg = A.Divergence.compute f in
  let head =
    List.find (fun b -> b.Ssa.bname = "while.head") f.Ssa.blocks_list
  in
  let is_const = function Ssa.Int _ -> true | _ -> false in
  let xphi =
    List.find
      (fun p -> Array.for_all is_const p.Ssa.operands)
      (Ssa.phis head)
  in
  check "constant-incoming phi is divergent" true
    (A.Divergence.is_divergent_instr dvg xphi)

let test_cfg_reachable_without () =
  let f, e, t, fl, j = diamond_cfg () in
  ignore f;
  let side = A.Cfg.reachable_without t ~stop:[ j ] in
  check "true side is just t" true
    (List.length side = 1 && (List.hd side).Ssa.bid = t.Ssa.bid);
  let all = A.Cfg.reachable_without e ~stop:[] in
  check "all reachable" true (List.length all = 4);
  ignore fl

let test_remove_unreachable () =
  let f, _, _, _, _ = diamond_cfg () in
  let dead = Ssa.mk_block "dead" in
  Ssa.append_block f dead;
  Ssa.append_instr dead (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  check "removed" true (A.Cfg.remove_unreachable f);
  check "gone" true
    (not (List.exists (fun b -> b.Ssa.bname = "dead") f.Ssa.blocks_list));
  check "idempotent" false (A.Cfg.remove_unreachable f)

let suites =
  [
    ( "analysis",
      [
        Alcotest.test_case "domtree diamond" `Quick test_domtree_diamond;
        Alcotest.test_case "postdom diamond" `Quick test_postdom_diamond;
        Alcotest.test_case "domtree + loops" `Quick test_domtree_loop;
        Alcotest.test_case "nested loops" `Quick test_nested_loops;
        Alcotest.test_case "divergence: tid" `Quick test_divergence_tid;
        Alcotest.test_case "divergence: uniform branch" `Quick
          test_divergence_uniform_branch;
        Alcotest.test_case "divergence: sync dependence" `Quick
          test_divergence_sync_dependence;
        Alcotest.test_case "divergence: loop dependent" `Quick
          test_divergence_loop_dependent;
        Alcotest.test_case "divergence: loads" `Quick
          test_uniform_load_uniform_addr;
        Alcotest.test_case "sync_joins: no-postdom fallback" `Quick
          test_sync_joins_no_postdom;
        Alcotest.test_case "divergence: temporal (loop exit)" `Quick
          test_divergence_temporal;
        Alcotest.test_case "latency model" `Quick test_latency_model;
        Alcotest.test_case "cfg reachable_without" `Quick
          test_cfg_reachable_without;
        Alcotest.test_case "cfg remove_unreachable" `Quick
          test_remove_unreachable;
      ] );
  ]
