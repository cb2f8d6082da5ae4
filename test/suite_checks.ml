(* GPU sanity checkers: dataflow framework, affine address analysis,
   barrier-divergence, shared-memory races, hygiene lints, and the
   meld translation-validation hook. *)

open Darm_ir
module A = Darm_analysis
module CK = Darm_checks
module D = Dsl
module K = Darm_kernels
module IntSet = Set.Make (Int)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- helpers ------------------------------------------------------- *)

let diag_ids (ds : CK.Diag.t list) : string list =
  List.map (fun d -> d.CK.Diag.id) ds

let has_id id ds = List.mem id (diag_ids ds)

let barrier_diags f = CK.Barrier_check.(diags (analyze f))

let build_shared_kernel name body =
  D.build_kernel ~name ~params:[ ("a", Types.Ptr Types.Global) ] body

(* --- dataflow framework -------------------------------------------- *)

let test_dataflow_reaching_blocks () =
  (* domain: set of block ids seen on some path; at the join of a
     diamond both arms must be present *)
  let f =
    build_shared_kernel "df" (fun ctx _ ->
        let tid = D.tid ctx in
        D.if_ ctx (D.slt ctx tid (D.i32 3)) (fun () -> ()) (fun () -> ()))
  in
  let module S = CK.Dataflow.Forward (struct
    type t = IntSet.t

    let equal = IntSet.equal
    let join = IntSet.union
  end) in
  let r =
    S.solve ~entry:IntSet.empty ~init:IntSet.empty
      ~transfer:(fun b fact -> IntSet.add b.Ssa.bid fact)
      f
  in
  let block name =
    List.find (fun b -> b.Ssa.bname = name) f.Ssa.blocks_list
  in
  let then_ = block "if.then" and else_ = block "if.else" in
  let join_in = S.block_in r (block "if.end") in
  check "then arm reaches join" true (IntSet.mem then_.Ssa.bid join_in);
  check "else arm reaches join" true (IntSet.mem else_.Ssa.bid join_in);
  check "join not in its own in-fact" false
    (IntSet.mem (block "if.end").Ssa.bid join_in);
  (* entry's in-fact is the entry fact *)
  check "entry in-fact empty" true
    (IntSet.is_empty (S.block_in r (Ssa.entry_block f)))

(* --- affine analysis ----------------------------------------------- *)

let test_affine_forms () =
  let f =
    D.build_kernel ~name:"af"
      ~params:[ ("a", Types.Ptr Types.Global); ("n", Types.I32) ]
      (fun ctx params ->
        let a = List.nth params 0 and n = List.nth params 1 in
        let tid = D.tid ctx in
        let i1 = D.add ctx (D.mul ctx tid (D.i32 4)) (D.i32 2) in
        let i2 = D.add ctx tid n in
        let i3 = D.xor ctx tid (D.i32 5) in
        let i4 = D.sub ctx (D.add ctx n (D.i32 7)) n in
        D.store ctx (D.i32 0) (D.gep ctx a i1);
        D.store ctx (D.i32 0) (D.gep ctx a i2);
        D.store ctx (D.i32 0) (D.gep ctx a i3);
        D.store ctx (D.i32 0) (D.gep ctx a i4))
  in
  let dvg = A.Divergence.compute f in
  let af = CK.Affine.compute dvg f in
  let geps =
    List.rev
      (Ssa.fold_instrs f
         (fun acc i -> if i.Ssa.op = Op.Gep then i :: acc else acc)
         [])
  in
  let index_av k =
    CK.Affine.value_av af (List.nth geps k).Ssa.operands.(1)
  in
  (match index_av 0 with
  | CK.Affine.Form { c; m; k; _ } ->
      check_int "4*tid+2: c" 4 c;
      check_int "4*tid+2: m" 0 m;
      check_int "4*tid+2: k" 2 k
  | CK.Affine.Top -> Alcotest.fail "4*tid+2 should be affine");
  (match index_av 1 with
  | CK.Affine.Form { c; m; sym = Some (Ssa.Param p); k } ->
      check_int "tid+n: c" 1 c;
      check_int "tid+n: m" 1 m;
      check_int "tid+n: k" 0 k;
      check "tid+n: sym is n" true (p.Ssa.pname = "n")
  | _ -> Alcotest.fail "tid+n should carry the n symbol");
  (* xor of tid fits no rule and is divergent: Top *)
  check "tid^5 unknown" true (index_av 2 = CK.Affine.Top);
  (* (n+7) - n: the uniform symbol cancels *)
  (match index_av 3 with
  | CK.Affine.Form { c = 0; m = 0; sym = None; k = 7 } -> ()
  | _ -> Alcotest.fail "(n+7)-n should fold to the constant 7")

let test_affine_uniform_fallback () =
  (* n/2 fits no structural rule but is uniform: it becomes its own
     symbol, so it compares equal to itself across accesses *)
  let f =
    D.build_kernel ~name:"af2"
      ~params:[ ("a", Types.Ptr Types.Global); ("n", Types.I32) ]
      (fun ctx params ->
        let a = List.nth params 0 and n = List.nth params 1 in
        let half = D.sdiv ctx n (D.i32 2) in
        D.store ctx (D.i32 0) (D.gep ctx a (D.add ctx (D.tid ctx) half)))
  in
  let dvg = A.Divergence.compute f in
  let af = CK.Affine.compute dvg f in
  let gep =
    Ssa.fold_instrs f
      (fun acc i -> if i.Ssa.op = Op.Gep then Some i else acc)
      None
    |> Option.get
  in
  match CK.Affine.value_av af gep.Ssa.operands.(1) with
  | CK.Affine.Form { c = 1; m = 1; sym = Some (Ssa.Instr s); k = 0 } ->
      check "sym is the sdiv" true (s.Ssa.op = Op.Ibin Op.Sdiv)
  | _ -> Alcotest.fail "tid + n/2 should be affine in a uniform symbol"

(* --- barrier-divergence -------------------------------------------- *)

let test_barrier_divergent_guard () =
  let f =
    build_shared_kernel "bd" (fun ctx _ ->
        let tid = D.tid ctx in
        D.if_then ctx (D.slt ctx tid (D.i32 16)) (fun () -> D.sync ctx))
  in
  let ds = barrier_diags f in
  check "flagged" true (has_id CK.Barrier_check.id_barrier_divergence ds);
  check "is an error" true (List.for_all CK.Diag.is_error ds)

let test_barrier_after_join_clean () =
  (* barrier at the reconvergence point of a divergent diamond: fine *)
  let f =
    build_shared_kernel "bj" (fun ctx params ->
        let a = List.hd params in
        let tid = D.tid ctx in
        let g = D.gep ctx a tid in
        D.if_ ctx
          (D.slt ctx tid (D.i32 16))
          (fun () -> D.store ctx (D.i32 1) g)
          (fun () -> D.store ctx (D.i32 2) g);
        D.sync ctx)
  in
  check "clean" true (barrier_diags f = [])

let test_barrier_uniform_guard_clean () =
  (* barrier under a uniform branch: every thread takes the same path *)
  let f =
    D.build_kernel ~name:"bu"
      ~params:[ ("a", Types.Ptr Types.Global); ("n", Types.I32) ]
      (fun ctx params ->
        let n = List.nth params 1 in
        D.if_then ctx (D.slt ctx n (D.i32 64)) (fun () -> D.sync ctx))
  in
  check "clean" true (barrier_diags f = [])

let test_barrier_temporal_divergence () =
  (* barrier inside a loop whose trip count depends on tid: threads
     leave the loop at different iterations, so the barrier diverges *)
  let f =
    build_shared_kernel "bt" (fun ctx _ ->
        let tid = D.tid ctx in
        D.for_up ctx ~from:(D.i32 0) ~until:tid (fun _ -> D.sync ctx))
  in
  let ds = barrier_diags f in
  check "temporal flagged" true
    (has_id CK.Barrier_check.id_barrier_divergence ds)

let test_barrier_uniform_loop_clean () =
  let f =
    D.build_kernel ~name:"bl"
      ~params:[ ("a", Types.Ptr Types.Global); ("n", Types.I32) ]
      (fun ctx params ->
        let n = List.nth params 1 in
        D.for_up ctx ~from:(D.i32 0) ~until:n (fun _ -> D.sync ctx))
  in
  check "clean" true (barrier_diags f = [])

let test_barrier_open_in () =
  let f =
    build_shared_kernel "bo" (fun ctx params ->
        let a = List.hd params in
        let tid = D.tid ctx in
        D.if_then ctx
          (D.slt ctx tid (D.i32 16))
          (fun () -> D.store ctx (D.i32 1) (D.gep ctx a tid)))
  in
  let t = CK.Barrier_check.analyze f in
  let block name =
    List.find (fun b -> b.Ssa.bname = name) f.Ssa.blocks_list
  in
  check "then-arm under divergence" true
    (CK.Barrier_check.open_in t (block "if.then") <> []);
  check "join reconverged" true
    (CK.Barrier_check.open_in t (block "if.end") = [])

(* --- shared-memory races ------------------------------------------- *)

let test_race_negative_kernels () =
  let report tag =
    let k = Option.get (K.Registry.find_any tag) in
    let inst = k.K.Kernel.make ~seed:1 ~block_size:64 ~n:k.K.Kernel.default_n in
    CK.Checker.check_func inst.K.Kernel.func
  in
  let xbar = report "XBAR" in
  check "XBAR has errors" true (CK.Checker.errors xbar <> []);
  check "XBAR id" true
    (has_id CK.Barrier_check.id_barrier_divergence xbar.CK.Checker.diags);
  let xrace = report "XRACE" in
  check "XRACE ww" true
    (has_id CK.Race_check.id_race_ww xrace.CK.Checker.diags);
  check "XRACE verdict racy" true
    (xrace.CK.Checker.verdict = CK.Race_check.Racy);
  let xrw = report "XRW" in
  check "XRW rw" true (has_id CK.Race_check.id_race_rw xrw.CK.Checker.diags);
  check "XRW no ww" false
    (has_id CK.Race_check.id_race_ww xrw.CK.Checker.diags)

let test_race_barrier_separates () =
  (* the classic correct pattern: write your slot, sync, read your
     neighbour's slot *)
  let f =
    build_shared_kernel "ok1" (fun ctx params ->
        let a = List.hd params in
        let tid = D.tid ctx in
        let s = D.shared_array ctx 65 in
        D.store ctx (D.load ctx (D.gep ctx a tid)) (D.gep ctx s tid);
        D.sync ctx;
        let v = D.load ctx (D.gep ctx s (D.add ctx tid (D.i32 1))) in
        D.store ctx v (D.gep ctx a tid))
  in
  let r = CK.Race_check.analyze f in
  check "no diags" true (CK.Race_check.diags r = []);
  check "proved free" true
    (CK.Race_check.verdict r = CK.Race_check.Proved_free)

let test_race_distinct_roots () =
  (* same indexes into two different shared arrays never conflict *)
  let f =
    build_shared_kernel "ok2" (fun ctx params ->
        let a = List.hd params in
        let tid = D.tid ctx in
        let s1 = D.shared_array ctx 64 in
        let s2 = D.shared_array ctx 64 in
        D.store ctx (D.i32 1) (D.gep ctx s1 tid);
        D.store ctx (D.load ctx (D.gep ctx s2 tid)) (D.gep ctx a tid);
        ignore a)
  in
  let r = CK.Race_check.analyze f in
  check "no diags" true (CK.Race_check.diags r = [])

let test_race_uniform_write () =
  (* every thread writes s[0]: a definite write-write race *)
  let f =
    build_shared_kernel "uw" (fun ctx _ ->
        let s = D.shared_array ctx 4 in
        D.store ctx (D.i32 1) (D.gep ctx s (D.i32 0)))
  in
  let r = CK.Race_check.analyze f in
  check "ww error" true (has_id CK.Race_check.id_race_ww (CK.Race_check.diags r));
  check "racy" true (CK.Race_check.verdict r = CK.Race_check.Racy)

let test_race_solo_guard () =
  (* ... unless a tid == k guard makes the write single-threaded *)
  let f =
    build_shared_kernel "solo" (fun ctx _ ->
        let tid = D.tid ctx in
        let s = D.shared_array ctx 4 in
        D.if_then ctx
          (D.eq ctx tid (D.i32 0))
          (fun () -> D.store ctx (D.i32 1) (D.gep ctx s (D.i32 0))))
  in
  let r = CK.Race_check.analyze f in
  check "no error" true
    (List.filter CK.Diag.is_error (CK.Race_check.diags r) = [])

let test_race_divergent_demoted () =
  (* a definite overlap under a divergent branch is only a warning:
     lockstep execution can mask it *)
  let f =
    build_shared_kernel "dw" (fun ctx _ ->
        let tid = D.tid ctx in
        let s = D.shared_array ctx 65 in
        D.if_then ctx
          (D.slt ctx tid (D.i32 16))
          (fun () ->
            D.store ctx (D.i32 1) (D.gep ctx s tid);
            D.store ctx (D.i32 1) (D.gep ctx s (D.add ctx tid (D.i32 1)))))
  in
  let ds = CK.Race_check.diags (CK.Race_check.analyze f) in
  check "demoted to warning" true
    (has_id CK.Race_check.id_race_divergent ds);
  check "no errors" true (List.filter CK.Diag.is_error ds = [])

let test_race_strided_proved_free () =
  (* s[4*tid + j] for uniform j in 0..3 would alias only if the offset
     difference were stride-aligned; here it never is *)
  let f =
    build_shared_kernel "st" (fun ctx _ ->
        let tid = D.tid ctx in
        let s = D.shared_array ctx 260 in
        let base = D.mul ctx tid (D.i32 4) in
        D.store ctx (D.i32 1) (D.gep ctx s base);
        D.store ctx (D.i32 2) (D.gep ctx s (D.add ctx base (D.i32 1))))
  in
  let r = CK.Race_check.analyze f in
  check "no diags" true (CK.Race_check.diags r = []);
  check "proved free" true
    (CK.Race_check.verdict r = CK.Race_check.Proved_free)

(* --- hygiene lints -------------------------------------------------- *)

let test_hygiene_lints () =
  let f = Ssa.mk_func "hy" [] in
  let e = Ssa.mk_block "entry" and b = Ssa.mk_block "b" in
  List.iter (Ssa.append_block f) [ e; b ];
  Ssa.append_instr e (Ssa.mk_instr Op.Br [||] [| b |] Types.Void);
  (* alloc.shared outside the entry block *)
  Ssa.append_instr b
    (Ssa.mk_instr (Op.Alloc_shared 8) [||] [||] (Types.Ptr Types.Shared));
  (* poison arithmetic *)
  Ssa.append_instr b
    (Ssa.mk_instr (Op.Ibin Op.Add)
       [| Ssa.Undef Types.I32; Ssa.Int 1 |]
       [||] Types.I32);
  (* trap hazard: load through undef *)
  Ssa.append_instr b
    (Ssa.mk_instr Op.Load
       [| Ssa.Undef (Types.Ptr Types.Global) |]
       [||] Types.I32);
  Ssa.append_instr b (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  let ds = CK.Hygiene.check f in
  check "alloc outside entry" true
    (has_id CK.Hygiene.id_alloc_outside_entry ds);
  check "undef operand" true (has_id CK.Hygiene.id_undef_operand ds);
  check "undef trap" true (has_id CK.Hygiene.id_undef_trap ds)

let test_hygiene_select_undef_ok () =
  (* undef in select arms / phi incomings is legitimate (melding
     introduces them); no warning *)
  let f = Ssa.mk_func "hs" [] in
  let e = Ssa.mk_block "entry" in
  Ssa.append_block f e;
  Ssa.append_instr e
    (Ssa.mk_instr Op.Select
       [| Ssa.Bool true; Ssa.Undef Types.I32; Ssa.Int 1 |]
       [||] Types.I32);
  Ssa.append_instr e (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  check "clean" true (CK.Hygiene.check f = [])

(* --- verifier address-space rules ---------------------------------- *)

let mk_alloc () =
  Ssa.mk_instr (Op.Alloc_shared 4) [||] [||] (Types.Ptr Types.Shared)

let test_verify_gep_space () =
  let f = Ssa.mk_func "vg" [] in
  let e = Ssa.mk_block "entry" in
  Ssa.append_block f e;
  let alloc = mk_alloc () in
  Ssa.append_instr e alloc;
  Ssa.append_instr e
    (Ssa.mk_instr Op.Gep
       [| Ssa.Instr alloc; Ssa.Int 0 |]
       [||] (Types.Ptr Types.Global));
  Ssa.append_instr e (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  check "rejected" true (Verify.run f <> [])

let test_verify_cast_result () =
  let f = Ssa.mk_func "vc" [] in
  let e = Ssa.mk_block "entry" in
  Ssa.append_block f e;
  let alloc = mk_alloc () in
  Ssa.append_instr e alloc;
  Ssa.append_instr e
    (Ssa.mk_instr Op.Addrspace_cast
       [| Ssa.Instr alloc |]
       [||] (Types.Ptr Types.Shared));
  Ssa.append_instr e (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  check "rejected" true (Verify.run f <> []);
  (* the flat result form verifies *)
  let g = Ssa.mk_func "vc2" [] in
  let e2 = Ssa.mk_block "entry" in
  Ssa.append_block g e2;
  let alloc2 = mk_alloc () in
  Ssa.append_instr e2 alloc2;
  Ssa.append_instr e2
    (Ssa.mk_instr Op.Addrspace_cast
       [| Ssa.Instr alloc2 |]
       [||] (Types.Ptr Types.Flat));
  Ssa.append_instr e2 (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  check "flat ok" true (Verify.run g = [])

(* one entry block: [instrs] then [ret] *)
let verify_entry instrs =
  let f = Ssa.mk_func "v" [] in
  let e = Ssa.mk_block "entry" in
  Ssa.append_block f e;
  List.iter (Ssa.append_instr e) instrs;
  Ssa.append_instr e (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  List.map (fun (e : Verify.error) -> e.Verify.msg) (Verify.run f)

let test_verify_store_non_pointer () =
  check "rejected" true
    (verify_entry
       [ Ssa.mk_instr Op.Store [| Ssa.Int 1; Ssa.Int 2 |] [||] Types.Void ]
    = [ "store: operand 1 is not a pointer" ])

let test_verify_select_wider_than_arms () =
  (* the rule types a select over two shared arms shared; a flat one
     would print the same bytes, which the parser reads back as shared *)
  let select ty =
    let a = mk_alloc () and b = mk_alloc () in
    [ a; b;
      Ssa.mk_instr Op.Select
        [| Ssa.Bool true; Ssa.Instr a; Ssa.Instr b |]
        [||] ty ]
  in
  Alcotest.(check (list string)) "flat rejected"
    [ "select: result type is ptr(flat), expected ptr(shared)" ]
    (verify_entry (select (Types.Ptr Types.Flat)));
  Alcotest.(check (list string)) "shared ok" []
    (verify_entry (select (Types.Ptr Types.Shared)))

let test_verify_phi_narrowing () =
  (* a shared-typed phi fed a flat incoming narrows: rejected; the
     flat-typed phi over mixed spaces (what melding produces) is fine *)
  let mk_diamond result_ty incoming_t =
    let f = Ssa.mk_func "vp" [] in
    let e = Ssa.mk_block "entry"
    and t = Ssa.mk_block "t"
    and fl = Ssa.mk_block "f"
    and j = Ssa.mk_block "join" in
    List.iter (Ssa.append_block f) [ e; t; fl; j ];
    let alloc = mk_alloc () in
    Ssa.append_instr e alloc;
    Ssa.append_instr e
      (Ssa.mk_instr Op.Condbr [| Ssa.Bool true |] [| t; fl |] Types.Void);
    Ssa.append_instr t (Ssa.mk_instr Op.Br [||] [| j |] Types.Void);
    Ssa.append_instr fl (Ssa.mk_instr Op.Br [||] [| j |] Types.Void);
    Ssa.append_instr j
      (Ssa.mk_instr Op.Phi
         [| incoming_t; Ssa.Instr alloc |]
         [| t; fl |] result_ty);
    Ssa.append_instr j (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
    f
  in
  check "narrowing rejected" true
    (Verify.run
       (mk_diamond (Types.Ptr Types.Shared) (Ssa.Undef (Types.Ptr Types.Flat)))
    <> []);
  check "widening ok" true
    (Verify.run
       (mk_diamond (Types.Ptr Types.Flat) (Ssa.Undef (Types.Ptr Types.Global)))
    = [])

(* --- orchestration, reports, JSON ---------------------------------- *)

let test_checker_invalid_ir () =
  let f = Ssa.mk_func "bad" [] in
  Ssa.append_block f (Ssa.mk_block "entry");
  let r = CK.Checker.check_func f in
  check "invalid-ir" true (has_id CK.Checker.id_invalid_ir r.CK.Checker.diags);
  check "verdict unknown" true
    (r.CK.Checker.verdict = CK.Race_check.Unknown)

let test_diag_json_roundtrip () =
  let f = Ssa.mk_func "k" [] in
  let d =
    CK.Diag.make ~id:"shared-race-ww" ~severity:CK.Diag.Error ~func:f
      "a \"quoted\" message"
  in
  let module J = Darm_obs.Json in
  match J.parse (J.to_string (CK.Diag.to_json d)) with
  | Ok js ->
      check "id" true (J.member "id" js = Some (J.Str "shared-race-ww"));
      check "severity" true (J.member "severity" js = Some (J.Str "error"));
      check "kernel" true (J.member "kernel" js = Some (J.Str "k"));
      check "message round-trips" true
        (J.member "message" js = Some (J.Str "a \"quoted\" message"))
  | Error e -> Alcotest.failf "diag json does not parse: %s" e

let test_report_json_schema () =
  let k = Option.get (K.Registry.find_any "XRACE") in
  let inst = k.K.Kernel.make ~seed:1 ~block_size:64 ~n:256 in
  let r = CK.Checker.check_func inst.K.Kernel.func in
  let module J = Darm_obs.Json in
  match J.parse (J.to_string (CK.Checker.report_to_json r)) with
  | Ok js ->
      check "format" true
        (J.member "format" js = Some (J.Str "darm-check-v1"));
      check "verdict" true (J.member "verdict" js = Some (J.Str "racy"));
      check "errors positive" true
        (match J.member "errors" js with
        | Some (J.Int n) -> n > 0
        | _ -> false)
  | Error e -> Alcotest.failf "report json does not parse: %s" e

let test_new_errors_diff () =
  let clean =
    CK.Checker.check_func
      (build_shared_kernel "c" (fun ctx params ->
           let a = List.hd params in
           D.store ctx (D.i32 1) (D.gep ctx a (D.tid ctx))))
  in
  let k = Option.get (K.Registry.find_any "XRACE") in
  let inst = k.K.Kernel.make ~seed:1 ~block_size:64 ~n:256 in
  let bad = CK.Checker.check_func inst.K.Kernel.func in
  check "bad vs clean: new" true
    (CK.Checker.new_errors ~before:clean ~after:bad <> []);
  check "clean vs bad: none" true
    (CK.Checker.new_errors ~before:bad ~after:clean = []);
  check "self diff empty" true
    (CK.Checker.new_errors ~before:bad ~after:bad = [])

(* --- registry cleanliness + translation validation ------------------ *)

let registry_instances () =
  List.map
    (fun k ->
      let bs = List.hd k.K.Kernel.block_sizes in
      (k.K.Kernel.tag, k.K.Kernel.make ~seed:7 ~block_size:bs ~n:256))
    K.Registry.all

let test_registry_clean_pre_and_post_meld () =
  List.iter
    (fun (tag, inst) ->
      let f = inst.K.Kernel.func in
      let before = CK.Checker.check_func f in
      if CK.Checker.errors before <> [] then
        Alcotest.failf "%s has pre-meld errors:\n%s" tag
          (CK.Checker.report_to_string before);
      ignore (Darm_core.Pass.run ~checked:true f);
      let after = CK.Checker.check_func f in
      match CK.Checker.new_errors ~before ~after with
      | [] -> ()
      | news ->
          Alcotest.failf "%s: melding introduced errors:\n%s" tag
            (String.concat "\n" (List.map CK.Diag.to_string news)))
    (registry_instances ())

(* everything a pass run decides but the manager's cache hits: the
   counters, the meld records and the printed IR *)
let pass_outcome (f : Ssa.func) (s : Darm_core.Pass.stats) : string =
  let (m : Darm_core.Meld.stats) = s.meld_stats in
  let record (r : Darm_core.Pass.meld_record) =
    Printf.sprintf "%d:%s:%s:%s:%h:%s" r.m_index r.m_region r.m_st r.m_sf
      r.m_fp_s
      (String.concat "," r.m_branches)
  in
  Printf.sprintf
    "iterations=%d regions=%d melds=%d pairs=%d prefiltered=%d \
     meld=%d,%d,%d,%d,%d\n%s\n%s"
    s.iterations s.regions_found s.melds_applied s.pairs_scored
    s.candidates_prefiltered m.melded_pairs m.gap_instrs m.selects_inserted
    m.entry_phis m.unpredicated_runs
    (String.concat ";" (List.map record s.melds))
    (Printer.func_to_string f)

(* translation validation only watches: a checked run that does not
   raise melds exactly as a plain one *)
let test_checked_melds_as_unchecked () =
  let melds = ref 0 in
  let same tag (mk : unit -> Ssa.func) =
    let plain = mk () and checked = mk () in
    let s_plain = Darm_core.Pass.run plain in
    let s_checked = Darm_core.Pass.run ~checked:true checked in
    melds := !melds + s_checked.Darm_core.Pass.melds_applied;
    Alcotest.(check string)
      (tag ^ ": checked run melds as a plain one")
      (pass_outcome plain s_plain)
      (pass_outcome checked s_checked)
  in
  List.iter
    (fun k ->
      List.iter
        (fun block_size ->
          same
            (Printf.sprintf "%s/%d" k.K.Kernel.tag block_size)
            (fun () ->
              (k.K.Kernel.make ~seed:7 ~block_size ~n:256).K.Kernel.func))
        k.K.Kernel.block_sizes)
    K.Registry.all;
  List.iter
    (fun seed ->
      same
        (Printf.sprintf "smoke/%d" seed)
        (fun () -> Darm_fuzz.Gen.generate ~cfg:Darm_fuzz.Gen.smoke_cfg ~seed ()))
    (Testlib.seeds 0 39);
  check "some run melded" true (!melds > 0)

let suites =
  [
    ( "checks",
      [
        Alcotest.test_case "dataflow: reaching blocks" `Quick
          test_dataflow_reaching_blocks;
        Alcotest.test_case "affine: structural forms" `Quick test_affine_forms;
        Alcotest.test_case "affine: uniform fallback" `Quick
          test_affine_uniform_fallback;
        Alcotest.test_case "barrier: divergent guard" `Quick
          test_barrier_divergent_guard;
        Alcotest.test_case "barrier: after join clean" `Quick
          test_barrier_after_join_clean;
        Alcotest.test_case "barrier: uniform guard clean" `Quick
          test_barrier_uniform_guard_clean;
        Alcotest.test_case "barrier: temporal divergence" `Quick
          test_barrier_temporal_divergence;
        Alcotest.test_case "barrier: uniform loop clean" `Quick
          test_barrier_uniform_loop_clean;
        Alcotest.test_case "barrier: open_in" `Quick test_barrier_open_in;
        Alcotest.test_case "race: negative kernels" `Quick
          test_race_negative_kernels;
        Alcotest.test_case "race: barrier separates" `Quick
          test_race_barrier_separates;
        Alcotest.test_case "race: distinct roots" `Quick
          test_race_distinct_roots;
        Alcotest.test_case "race: uniform write" `Quick test_race_uniform_write;
        Alcotest.test_case "race: solo guard" `Quick test_race_solo_guard;
        Alcotest.test_case "race: divergent demoted" `Quick
          test_race_divergent_demoted;
        Alcotest.test_case "race: strided proved free" `Quick
          test_race_strided_proved_free;
        Alcotest.test_case "hygiene: lints" `Quick test_hygiene_lints;
        Alcotest.test_case "hygiene: select undef ok" `Quick
          test_hygiene_select_undef_ok;
        Alcotest.test_case "verify: gep space" `Quick test_verify_gep_space;
        Alcotest.test_case "verify: cast result" `Quick test_verify_cast_result;
        Alcotest.test_case "verify: store through a non-pointer" `Quick
          test_verify_store_non_pointer;
        Alcotest.test_case "verify: select wider than its arms" `Quick
          test_verify_select_wider_than_arms;
        Alcotest.test_case "verify: phi narrowing" `Quick
          test_verify_phi_narrowing;
        Alcotest.test_case "checker: invalid ir" `Quick
          test_checker_invalid_ir;
        Alcotest.test_case "diag json roundtrip" `Quick
          test_diag_json_roundtrip;
        Alcotest.test_case "report json schema" `Quick test_report_json_schema;
        Alcotest.test_case "new_errors diff" `Quick test_new_errors_diff;
        Alcotest.test_case "registry clean pre/post meld" `Quick
          test_registry_clean_pre_and_post_meld;
        Alcotest.test_case "checked pass melds as unchecked" `Quick
          test_checked_melds_as_unchecked;
      ] );
  ]
