(* IR construction, printing, verification and the SSA-building DSL. *)

open Darm_ir
module D = Dsl

let check = Alcotest.(check bool)

let test_types () =
  Alcotest.(check string) "ptr str" "ptr(shared)"
    (Types.to_string (Types.Ptr Types.Shared));
  check "join same" true (Types.join_ptr Types.Global Types.Global = Types.Global);
  check "join mixed" true (Types.join_ptr Types.Global Types.Shared = Types.Flat);
  check "pointer" true (Types.is_pointer (Types.Ptr Types.Flat));
  check "not pointer" false (Types.is_pointer Types.I32)

let test_op_classification () =
  check "store side effect" true (Op.has_side_effect Op.Store);
  check "sdiv side effect" true (Op.has_side_effect (Op.Ibin Op.Sdiv));
  check "add pure" false (Op.has_side_effect (Op.Ibin Op.Add));
  check "load unsafe" true (Op.unsafe_to_speculate Op.Load);
  check "add speculatable" false (Op.unsafe_to_speculate (Op.Ibin Op.Add));
  check "br terminator" true (Op.is_terminator Op.Br);
  check "phi not term" false (Op.is_terminator Op.Phi);
  check "select alu" true (Op.is_alu Op.Select);
  check "load not alu" false (Op.is_alu Op.Load);
  check "load memory" true (Op.is_memory Op.Load)

let test_builder_types () =
  let f = Ssa.mk_func "t" [] in
  let b = Builder.create f in
  let blk = Builder.add_block b "entry" in
  Builder.position_at_end b blk;
  let x = Builder.ins b (Op.Ibin Op.Add) [| Builder.i32 1; Builder.i32 2 |] in
  check "add ty" true (Ssa.value_ty x = Types.I32);
  let c = Builder.ins b (Op.Icmp Op.Islt) [| x; Builder.i32 5 |] in
  check "icmp ty" true (Ssa.value_ty c = Types.I1);
  (try
     ignore (Builder.ins b (Op.Ibin Op.Add) [| c; c |]);
     Alcotest.fail "expected type error"
   with Invalid_argument _ -> ());
  (try
     ignore (Builder.ins b Op.Select [| x; x; x |]);
     Alcotest.fail "expected select cond type error"
   with Invalid_argument _ -> ());
  (* a rejected branch is never built, so it names no edge *)
  let dest = Builder.add_block b "dest" in
  (try
     ignore (Builder.ins b ~targets:[| dest; dest |] Op.Condbr [| x |]);
     Alcotest.fail "expected condbr cond type error"
   with Invalid_argument _ -> ());
  (try
     ignore (Builder.ins b ~targets:[| dest |] Op.Condbr [| c |]);
     Alcotest.fail "expected condbr target count error"
   with Invalid_argument _ -> ());
  check "no edge" true (Ssa.preds dest = [])

let test_select_ptr_join () =
  let f = Ssa.mk_func "t" [] in
  let b = Builder.create f in
  let blk = Builder.add_block b "entry" in
  Builder.position_at_end b blk;
  let g = Builder.ins b (Op.Alloc_shared 4) [||] in
  let p =
    Ssa.Param { Ssa.pname = "g"; pty = Types.Ptr Types.Global; pindex = 0 }
  in
  let c = Builder.i1 true in
  let s = Builder.ins b Op.Select [| c; g; p |] in
  check "select ptr degrades to flat" true
    (Ssa.value_ty s = Types.Ptr Types.Flat)

let test_verifier_catches_missing_terminator () =
  let f = Ssa.mk_func "broken" [] in
  let blk = Ssa.mk_block "entry" in
  Ssa.append_block f blk;
  let i = Ssa.mk_instr (Op.Ibin Op.Add) [| Ssa.Int 1; Ssa.Int 2 |] [||] Types.I32 in
  Ssa.append_instr blk i;
  check "verifier fails" true (Verify.run f <> [])

let test_verifier_catches_use_before_def () =
  let f = Ssa.mk_func "broken2" [] in
  let blk = Ssa.mk_block "entry" in
  Ssa.append_block f blk;
  let a = Ssa.mk_instr (Op.Ibin Op.Add) [| Ssa.Int 1; Ssa.Int 2 |] [||] Types.I32 in
  let b = Ssa.mk_instr (Op.Ibin Op.Add) [| Ssa.Instr a; Ssa.Int 1 |] [||] Types.I32 in
  (* b placed before a *)
  Ssa.append_instr blk b;
  Ssa.append_instr blk a;
  let r = Ssa.mk_instr Op.Ret [||] [||] Types.Void in
  Ssa.append_instr blk r;
  check "dominance violation found" true (Verify.run f <> [])

let test_verifier_catches_phi_mismatch () =
  let f = Ssa.mk_func "broken3" [] in
  let e = Ssa.mk_block "entry" in
  let j = Ssa.mk_block "join" in
  Ssa.append_block f e;
  Ssa.append_block f j;
  Ssa.append_instr e (Ssa.mk_instr Op.Br [||] [| j |] Types.Void);
  let phi = Ssa.mk_instr Op.Phi [||] [||] Types.I32 in
  Ssa.append_instr j phi;
  (* phi has no incoming for pred entry *)
  Ssa.append_instr j (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  check "phi mismatch found" true (Verify.run f <> [])

(* entry -> ghost -> exit, with ghost missing from the block list: the
   branch into it must be a verifier error, not an uncaught Not_found
   from the simulator's block index. *)
let test_verifier_catches_dangling_target () =
  let f = Ssa.mk_func "dangling" [] in
  let e = Ssa.mk_block "entry"
  and ghost = Ssa.mk_block "ghost"
  and x = Ssa.mk_block "exit" in
  Ssa.append_block f e;
  Ssa.append_block f x;
  Ssa.append_instr e (Ssa.mk_instr Op.Br [||] [| ghost |] Types.Void);
  Ssa.append_instr ghost (Ssa.mk_instr Op.Br [||] [| x |] Types.Void);
  Ssa.append_instr x (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  Alcotest.(check (list string))
    "one error"
    [ "branch in entry targets block ghost outside @dangling" ]
    (List.map (fun (e : Verify.error) -> e.Verify.msg) (Verify.run f));
  match
    Darm_sim.Simulator.run f ~args:[||]
      ~global:(Darm_sim.Memory.create ~space:Darm_sim.Memory.Sp_global 1)
      { Darm_sim.Simulator.grid_dim = 1; block_dim = 32 }
  with
  | _ -> Alcotest.fail "simulated a function with a dangling branch"
  | exception Verify.Invalid_ir _ -> ()

let test_verifier_type_checks () =
  let mk_broken build =
    let f = Ssa.mk_func "ty" [] in
    let blk = Ssa.mk_block "entry" in
    Ssa.append_block f blk;
    build blk;
    Ssa.append_instr blk (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
    Verify.run f <> []
  in
  check "add of floats rejected" true
    (mk_broken (fun b ->
         Ssa.append_instr b
           (Ssa.mk_instr (Op.Ibin Op.Add)
              [| Ssa.Float 1.; Ssa.Float 2. |]
              [||] Types.I32)));
  check "load of int rejected" true
    (mk_broken (fun b ->
         Ssa.append_instr b
           (Ssa.mk_instr Op.Load [| Ssa.Int 3 |] [||] Types.I32)));
  check "select cond i32 rejected" true
    (mk_broken (fun b ->
         Ssa.append_instr b
           (Ssa.mk_instr Op.Select
              [| Ssa.Int 1; Ssa.Int 2; Ssa.Int 3 |]
              [||] Types.I32)));
  check "gep float index rejected" true
    (mk_broken (fun b ->
         Ssa.append_instr b
           (Ssa.mk_instr Op.Gep
              [| Ssa.Undef (Types.Ptr Types.Global); Ssa.Float 1. |]
              [||] (Types.Ptr Types.Global))));
  check "phi of mixed scalars rejected" true
    (mk_broken (fun b ->
         let phi = Ssa.mk_instr Op.Phi [| Ssa.Float 1. |] [||] Types.I32 in
         (* structurally also wrong, but the type error must be among
            the reports *)
         Ssa.append_instr b phi));
  (* well-typed cross-space select is accepted *)
  let f = Ssa.mk_func "ok" [] in
  let blk = Ssa.mk_block "entry" in
  Ssa.append_block f blk;
  Ssa.append_instr blk
    (Ssa.mk_instr Op.Select
       [| Ssa.Bool true;
          Ssa.Undef (Types.Ptr Types.Shared);
          Ssa.Undef (Types.Ptr Types.Global) |]
       [||] (Types.Ptr Types.Flat));
  Ssa.append_instr blk (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  check "cross-space select accepted" true (Verify.run f = [])

let test_verifier_target_counts () =
  let msgs build =
    let f = Ssa.mk_func "tg" [] in
    let e = Ssa.mk_block "entry" and x = Ssa.mk_block "exit" in
    Ssa.append_block f e;
    Ssa.append_block f x;
    Ssa.append_instr e (build x);
    Ssa.append_instr x (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
    List.map (fun (e : Verify.error) -> e.Verify.msg) (Verify.run f)
  in
  (* the printer reads a condbr's two targets *)
  Alcotest.(check (list string)) "condbr with one target"
    [ "condbr: expected 2 targets, got 1" ]
    (msgs (fun x ->
         Ssa.mk_instr Op.Condbr [| Ssa.Bool true |] [| x |] Types.Void));
  Alcotest.(check (list string)) "br with two targets"
    [ "br: expected 1 targets, got 2" ]
    (msgs (fun x -> Ssa.mk_instr Op.Br [||] [| x; x |] Types.Void))

let test_dsl_diamond_verifies () =
  let f = Testlib.diamond_func () in
  Verify.run_exn f;
  check "has blocks" true (List.length f.Ssa.blocks_list >= 4)

let test_dsl_loop_phis () =
  let f =
    D.build_kernel ~name:"loop" ~params:[ ("n", Types.I32) ]
      (fun ctx params ->
        let n = List.hd params in
        let acc = D.local ctx ~name:"acc" Types.I32 in
        D.set ctx acc (D.i32 0);
        D.for_up ctx ~from:(D.i32 0) ~until:n (fun iv ->
            D.set ctx acc (D.add ctx (D.get ctx acc) iv));
        ignore (D.get ctx acc))
  in
  Verify.run_exn f;
  (* the loop header must contain phis for acc and i *)
  let header =
    List.find (fun b -> b.Ssa.bname = "while.head") f.Ssa.blocks_list
  in
  check "two loop phis" true (List.length (Ssa.phis header) = 2)

let test_dsl_nested_if_in_loop () =
  let f =
    D.build_kernel ~name:"nest" ~params:[ ("n", Types.I32) ]
      (fun ctx params ->
        let n = List.hd params in
        let acc = D.local ctx ~name:"acc" Types.I32 in
        D.set ctx acc (D.i32 0);
        D.for_up ctx ~from:(D.i32 0) ~until:n (fun iv ->
            D.if_ ctx
              (D.eq ctx (D.and_ ctx iv (D.i32 1)) (D.i32 0))
              (fun () -> D.set ctx acc (D.add ctx (D.get ctx acc) iv))
              (fun () -> D.set ctx acc (D.sub ctx (D.get ctx acc) iv)));
        ignore (D.get ctx acc))
  in
  Verify.run_exn f

let test_printer_names_stable () =
  let f = Testlib.diamond_func () in
  let s1 = Printer.func_to_string f in
  let s2 = Printer.func_to_string f in
  Alcotest.(check string) "printing is deterministic" s1 s2;
  check "mentions kernel name" true
    (String.length s1 > 0
    && String.sub s1 0 15 = "kernel @diamond")

let test_replace_all_uses () =
  let f = Ssa.mk_func "rauw" [] in
  let blk = Ssa.mk_block "entry" in
  Ssa.append_block f blk;
  let a = Ssa.mk_instr (Op.Ibin Op.Add) [| Ssa.Int 1; Ssa.Int 2 |] [||] Types.I32 in
  let b = Ssa.mk_instr (Op.Ibin Op.Mul) [| Ssa.Instr a; Ssa.Instr a |] [||] Types.I32 in
  Ssa.append_instr blk a;
  Ssa.append_instr blk b;
  Ssa.append_instr blk (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  Ssa.replace_all_uses f ~old_v:(Ssa.Instr a) ~new_v:(Ssa.Int 7);
  check "both operands replaced" true
    (Array.for_all (fun v -> Ssa.value_equal v (Ssa.Int 7)) b.Ssa.operands)

let test_users () =
  let f = Ssa.mk_func "users" [] in
  let blk = Ssa.mk_block "entry" in
  Ssa.append_block f blk;
  let a = Ssa.mk_instr (Op.Ibin Op.Add) [| Ssa.Int 1; Ssa.Int 2 |] [||] Types.I32 in
  let b = Ssa.mk_instr (Op.Ibin Op.Mul) [| Ssa.Instr a; Ssa.Int 3 |] [||] Types.I32 in
  let c = Ssa.mk_instr (Op.Ibin Op.Sub) [| Ssa.Int 3; Ssa.Int 1 |] [||] Types.I32 in
  List.iter (Ssa.append_instr blk) [ a; b; c ];
  Ssa.append_instr blk (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  check "one user" true
    (match Ssa.users f (Ssa.Instr a) with [ u ] -> u.Ssa.id = b.Ssa.id | _ -> false)

let suites =
  [
    ( "ir",
      [
        Alcotest.test_case "types" `Quick test_types;
        Alcotest.test_case "op classification" `Quick test_op_classification;
        Alcotest.test_case "builder type checking" `Quick test_builder_types;
        Alcotest.test_case "select ptr join" `Quick test_select_ptr_join;
        Alcotest.test_case "verifier: missing terminator" `Quick
          test_verifier_catches_missing_terminator;
        Alcotest.test_case "verifier: use before def" `Quick
          test_verifier_catches_use_before_def;
        Alcotest.test_case "verifier: phi mismatch" `Quick
          test_verifier_catches_phi_mismatch;
        Alcotest.test_case "verifier: dangling branch target" `Quick
          test_verifier_catches_dangling_target;
        Alcotest.test_case "verifier: type checks" `Quick
          test_verifier_type_checks;
        Alcotest.test_case "verifier: branch target counts" `Quick
          test_verifier_target_counts;
        Alcotest.test_case "dsl diamond verifies" `Quick
          test_dsl_diamond_verifies;
        Alcotest.test_case "dsl loop phis" `Quick test_dsl_loop_phis;
        Alcotest.test_case "dsl nested if in loop" `Quick
          test_dsl_nested_if_in_loop;
        Alcotest.test_case "printer deterministic" `Quick
          test_printer_names_stable;
        Alcotest.test_case "replace_all_uses" `Quick test_replace_all_uses;
        Alcotest.test_case "users" `Quick test_users;
      ] );
  ]
