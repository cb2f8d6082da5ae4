(* SimplifyCFG, DCE, constant folding, if-conversion. *)

open Darm_ir
module T = Darm_transforms
module D = Dsl
module Sim = Darm_sim.Simulator
module Memory = Darm_sim.Memory
module Metrics = Darm_sim.Metrics

let check = Alcotest.(check bool)

let test_constfold_basic () =
  let f =
    D.build_kernel ~name:"cf" ~params:[ ("out", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let out = List.hd params in
        let v = D.add ctx (D.i32 2) (D.i32 3) in
        let v = D.mul ctx v (D.i32 1) in
        D.store ctx v (D.gep ctx out (D.i32 0)))
  in
  check "folded" true (T.Constfold.run f);
  ignore (T.Dce.run f);
  Verify.run_exn f;
  let remaining_binops =
    Ssa.fold_instrs f
      (fun acc i -> match i.Ssa.op with Op.Ibin _ -> acc + 1 | _ -> acc)
      0
  in
  check "no binops left" true (remaining_binops = 0)

let test_constfold_select () =
  let i =
    Ssa.mk_instr Op.Select [| Ssa.Bool true; Ssa.Int 4; Ssa.Int 5 |] [||]
      Types.I32
  in
  check "select true" true (T.Constfold.fold_instr i = Some (Ssa.Int 4));
  let j =
    Ssa.mk_instr Op.Select [| Ssa.Undef Types.I1; Ssa.Int 4; Ssa.Int 4 |] [||]
      Types.I32
  in
  check "select same arms" true (T.Constfold.fold_instr j = Some (Ssa.Int 4))

let test_constfold_no_div_by_zero () =
  let i =
    Ssa.mk_instr (Op.Ibin Op.Sdiv) [| Ssa.Int 4; Ssa.Int 0 |] [||] Types.I32
  in
  check "sdiv by 0 not folded" true (T.Constfold.fold_instr i = None)

let test_dce_removes_dead_pure () =
  let f =
    D.build_kernel ~name:"dce" ~params:[ ("out", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let out = List.hd params in
        let t = D.tid ctx in
        let _dead = D.add ctx t (D.i32 1) in
        D.store ctx t (D.gep ctx out t))
  in
  check "removed" true (T.Dce.run f);
  Verify.run_exn f

let test_dce_keeps_stores () =
  let f =
    D.build_kernel ~name:"dce2" ~params:[ ("out", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let out = List.hd params in
        D.store ctx (D.i32 1) (D.gep ctx out (D.i32 0)))
  in
  ignore (T.Dce.run f);
  let stores =
    Ssa.fold_instrs f
      (fun acc i -> if i.Ssa.op = Op.Store then acc + 1 else acc)
      0
  in
  check "store survives" true (stores = 1)

let test_simplify_collapses_empty_diamond () =
  let f =
    D.build_kernel ~name:"empty_diamond" ~params:[]
      (fun ctx _ ->
        let t = D.tid ctx in
        D.if_ ctx (D.slt ctx t (D.i32 1)) (fun () -> ()) (fun () -> ()))
  in
  ignore (T.Simplify_cfg.run f);
  ignore (T.Dce.run f);
  ignore (T.Simplify_cfg.run f);
  Verify.run_exn f;
  check "single block remains" true (List.length f.Ssa.blocks_list = 1)

let test_simplify_constant_branch () =
  let f =
    D.build_kernel ~name:"constbr" ~params:[ ("out", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let out = List.hd params in
        let r = D.local ctx ~name:"r" Types.I32 in
        D.if_ ctx (D.i1 true)
          (fun () -> D.set ctx r (D.i32 1))
          (fun () -> D.set ctx r (D.i32 2));
        D.store ctx (D.get ctx r) (D.gep ctx out (D.i32 0)))
  in
  ignore (T.Simplify_cfg.run f);
  ignore (T.Dce.run f);
  Verify.run_exn f;
  check "one block" true (List.length f.Ssa.blocks_list = 1);
  (* the surviving store must store 1 *)
  let stored =
    Ssa.fold_instrs f
      (fun acc i ->
        if i.Ssa.op = Op.Store then Some i.Ssa.operands.(0) else acc)
      None
  in
  check "store folded to 1" true
    (match stored with Some (Ssa.Int 1) -> true | _ -> false)

let test_if_convert_diamond () =
  let f = Testlib.diamond_func () in
  check "converted" true (T.Simplify_cfg.if_convert ~max_cost:20 f);
  Verify.run_exn f;
  let selects =
    Ssa.fold_instrs f
      (fun acc i -> if i.Ssa.op = Op.Select then acc + 1 else acc)
      0
  in
  check "select introduced" true (selects >= 1);
  check "flat cfg" true (List.length f.Ssa.blocks_list = 1)

let test_if_convert_refuses_stores () =
  let f =
    D.build_kernel ~name:"store_diamond"
      ~params:[ ("out", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let out = List.hd params in
        let t = D.tid ctx in
        D.if_ ctx
          (D.slt ctx t (D.i32 1))
          (fun () -> D.store ctx (D.i32 1) (D.gep ctx out t))
          (fun () -> D.store ctx (D.i32 2) (D.gep ctx out t)))
  in
  let n_blocks = List.length f.Ssa.blocks_list in
  check "not converted" false (T.Simplify_cfg.if_convert f);
  check "cfg unchanged" true (List.length f.Ssa.blocks_list = n_blocks)

(* [j]'s phi is typed ptr(flat), wider than its shared incomings
   [%0] and [in_r]; the accesses below read through it *)
let widening_phi ~in_r =
  let src =
    Printf.sprintf
      "kernel @widen(%%a: ptr(global)) {\n\
       entry:\n\
      \  %%0 = alloc.shared 64\n\
      \  %%1 = alloc.shared 64\n\
      \  %%2 = thread.idx\n\
      \  %%3 = and %%2, 1\n\
      \  %%4 = icmp eq %%3, 0\n\
      \  condbr %%4, l, r\n\
       l:\n\
      \  br j\n\
       r:\n\
      \  br j\n\
       j:\n\
      \  %%5 = phi ptr(flat) [%%0, l], [%s, r]\n\
      \  %%6 = gep %%5, %%2\n\
      \  store %%2, %%6\n\
      \  %%7 = load i32, %%6\n\
      \  %%8 = gep %%a, %%2\n\
      \  store %%7, %%8\n\
      \  ret\n\
       }\n"
      in_r
  in
  match Parser.parse_func src with
  | Ok f -> f
  | Error e -> Alcotest.fail e

let verify_msgs f =
  List.map (fun (e : Verify.error) -> e.Verify.msg) (Verify.run f)

let test_simplify_widening_phi () =
  (* both incomings are %0: the phi folds away and the gep, which read
     a flat pointer, now reads %0 and is re-typed shared *)
  let f = widening_phi ~in_r:"%0" in
  ignore (T.Simplify_cfg.run f);
  Alcotest.(check (list string)) "verifies" [] (verify_msgs f)

let test_if_convert_widening_phi_roundtrip () =
  (* the select over two shared allocations is typed shared, as the
     parser reads it back, so the printed bytes simulate as the IR in
     memory does *)
  let f = widening_phi ~in_r:"%1" in
  check "converted" true (T.Simplify_cfg.if_convert f);
  Alcotest.(check (list string)) "verifies" [] (verify_msgs f);
  let reparsed =
    match Parser.parse_func (Printer.func_to_string f) with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  let simulate f =
    let global = Memory.create ~space:Memory.Sp_global 64 in
    let a = Memory.alloc global 64 in
    let m =
      Sim.run f ~args:[| a |] ~global { Sim.grid_dim = 1; block_dim = 64 }
    in
    (Metrics.to_string m ~warp_size:Sim.default_config.Sim.warp_size,
     Metrics.site_stats m)
  in
  let in_memory = simulate f and after_parse = simulate reparsed in
  Alcotest.(check string) "metrics" (fst after_parse) (fst in_memory);
  check "per-site stats" true (snd in_memory = snd after_parse)

let test_simplify_preserves_semantics () =
  (* random diamond program: simplify+dce must not change the output *)
  let kernel = Darm_kernels.Sb.sb1 in
  let transform f =
    ignore (T.Simplify_cfg.run f);
    ignore (T.Constfold.run f);
    ignore (T.Dce.run f)
  in
  ignore (Testlib.check_equivalence ~transform kernel ~block_size:64 ~n:128 ~seed:5)

let test_tail_merge_identical_diamond () =
  (* both arms store the same computation: tails must merge *)
  let f =
    D.build_kernel ~name:"tm" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let g = D.gep ctx a t in
        D.if_ ctx
          (D.eq ctx (D.and_ ctx t (D.i32 1)) (D.i32 0))
          (fun () ->
            let v = D.load ctx g in
            D.store ctx (D.add ctx v (D.i32 1)) g)
          (fun () ->
            let v = D.load ctx g in
            D.store ctx (D.add ctx v (D.i32 1)) g))
  in
  let merges = T.Tail_merge.run f in
  Verify.run_exn f;
  check "merged" true (merges >= 1)

let test_tail_merge_rejects_different_code () =
  let f =
    D.build_kernel ~name:"tm2" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let g = D.gep ctx a t in
        D.if_ ctx
          (D.eq ctx (D.and_ ctx t (D.i32 1)) (D.i32 0))
          (fun () -> D.store ctx (D.i32 1) g)
          (fun () -> D.store ctx (D.i32 2) g))
  in
  let merges = T.Tail_merge.run f in
  check "no merge for different stores" true (merges = 0)

let test_tail_merge_partial_suffix () =
  (* arms differ at the head but share the trailing store *)
  let f =
    D.build_kernel ~name:"tm3" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let g = D.gep ctx a t in
        let r = D.local ctx ~name:"r" Types.I32 in
        D.if_ ctx
          (D.eq ctx (D.and_ ctx t (D.i32 1)) (D.i32 0))
          (fun () ->
            D.set ctx r (D.mul ctx t (D.i32 3));
            D.store ctx (D.i32 7) g)
          (fun () ->
            D.set ctx r (D.add ctx t (D.i32 9));
            D.store ctx (D.i32 7) g);
        D.store ctx (D.get ctx r) (D.gep ctx a (D.add ctx t (D.i32 64))))
  in
  let merges = T.Tail_merge.run f in
  Verify.run_exn f;
  check "partial merge" true (merges >= 1)

let test_tail_merge_preserves_semantics () =
  let transform f = ignore (T.Tail_merge.run f) in
  List.iter
    (fun kernel ->
      ignore
        (Testlib.check_equivalence ~transform kernel ~block_size:64 ~n:128
           ~seed:21))
    [ Darm_kernels.Sb.sb1; Darm_kernels.Sb.sb2; Darm_kernels.Sb.sb3 ]

let suites =
  [
    ( "transforms",
      [
        Alcotest.test_case "constfold basic" `Quick test_constfold_basic;
        Alcotest.test_case "constfold select" `Quick test_constfold_select;
        Alcotest.test_case "constfold div-by-zero" `Quick
          test_constfold_no_div_by_zero;
        Alcotest.test_case "dce removes dead" `Quick test_dce_removes_dead_pure;
        Alcotest.test_case "dce keeps stores" `Quick test_dce_keeps_stores;
        Alcotest.test_case "simplify empty diamond" `Quick
          test_simplify_collapses_empty_diamond;
        Alcotest.test_case "simplify constant branch" `Quick
          test_simplify_constant_branch;
        Alcotest.test_case "if-convert diamond" `Quick test_if_convert_diamond;
        Alcotest.test_case "if-convert refuses stores" `Quick
          test_if_convert_refuses_stores;
        Alcotest.test_case "simplify widening phi" `Quick
          test_simplify_widening_phi;
        Alcotest.test_case "if-convert widening phi round trip" `Quick
          test_if_convert_widening_phi_roundtrip;
        Alcotest.test_case "simplify preserves semantics" `Quick
          test_simplify_preserves_semantics;
        Alcotest.test_case "tail merge identical diamond" `Quick
          test_tail_merge_identical_diamond;
        Alcotest.test_case "tail merge rejects different" `Quick
          test_tail_merge_rejects_different_code;
        Alcotest.test_case "tail merge partial suffix" `Quick
          test_tail_merge_partial_suffix;
        Alcotest.test_case "tail merge preserves semantics" `Quick
          test_tail_merge_preserves_semantics;
      ] );
  ]
