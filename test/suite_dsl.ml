(* The SSA-construction DSL (Braun et al.): pruned phis, sealing, loops,
   and the behaviours kernels depend on — verified both structurally and
   by simulation. *)

open Darm_ir
module D = Dsl
module Sim = Darm_sim.Simulator
module Memory = Darm_sim.Memory

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let count_phis f =
  Ssa.fold_instrs f (fun acc i -> if i.Ssa.op = Op.Phi then acc + 1 else acc) 0

let run1 f n args_mk =
  let g = Memory.create ~space:Memory.Sp_global (4 * n) in
  let args = args_mk g in
  ignore (Sim.run f ~args ~global:g { Sim.grid_dim = 1; block_dim = n });
  g

let test_no_phi_for_straightline () =
  let f =
    D.build_kernel ~name:"s" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let v = D.local ctx ~name:"v" Types.I32 in
        D.set ctx v (D.i32 1);
        D.set ctx v (D.add ctx (D.get ctx v) (D.i32 2));
        D.store ctx (D.get ctx v) (D.gep ctx a (D.tid ctx)))
  in
  check_int "straight-line code needs no phis" 0 (count_phis f)

let test_no_phi_when_var_unchanged_in_branch () =
  (* pruned SSA: a variable not assigned in either arm must not get a
     join phi *)
  let f =
    D.build_kernel ~name:"p" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let v = D.local ctx ~name:"v" Types.I32 in
        D.set ctx v (D.i32 7);
        D.if_ ctx
          (D.slt ctx t (D.i32 3))
          (fun () -> D.store ctx (D.i32 0) (D.gep ctx a t))
          (fun () -> D.store ctx (D.i32 1) (D.gep ctx a t));
        D.store ctx (D.get ctx v) (D.gep ctx a (D.add ctx t (D.i32 32))))
  in
  check_int "no phi for unassigned variable" 0 (count_phis f)

let test_phi_only_for_assigned_branch_var () =
  let f =
    D.build_kernel ~name:"q" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let v = D.local ctx ~name:"v" Types.I32 in
        let w = D.local ctx ~name:"w" Types.I32 in
        D.set ctx v (D.i32 1);
        D.set ctx w (D.i32 2);
        D.if_ ctx
          (D.slt ctx t (D.i32 3))
          (fun () -> D.set ctx v (D.i32 10))
          (fun () -> ());
        D.store ctx (D.add ctx (D.get ctx v) (D.get ctx w))
          (D.gep ctx a t))
  in
  check_int "exactly one phi (for v)" 1 (count_phis f)

let test_while_cond_uses_loop_phi () =
  (* a while condition reading a loop-modified variable must read the
     phi, not the pre-loop value: checked by behaviour *)
  let f =
    D.build_kernel ~name:"w" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let v = D.local ctx ~name:"v" Types.I32 in
        D.set ctx v (D.i32 0);
        D.while_ ctx
          (fun () -> D.slt ctx (D.get ctx v) t)
          (fun () -> D.set ctx v (D.add ctx (D.get ctx v) (D.i32 2)));
        D.store ctx (D.get ctx v) (D.gep ctx a t))
  in
  let g = run1 f 16 (fun g -> [| Memory.alloc g 16 |]) in
  let out = Memory.read_int_array g (Memory.Rptr (Memory.Sp_global, 0)) 16 in
  (* smallest even value >= t *)
  let expected = Array.init 16 (fun t -> (t + 1) / 2 * 2) in
  Alcotest.(check (array int)) "loop condition sees updates" expected out

let test_nested_loops_independent_vars () =
  let f =
    D.build_kernel ~name:"nl" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let acc = D.local ctx ~name:"acc" Types.I32 in
        D.set ctx acc (D.i32 0);
        D.for_up ctx ~name:"i" ~from:(D.i32 0) ~until:(D.i32 3) (fun _ ->
            D.for_up ctx ~name:"j" ~from:(D.i32 0) ~until:(D.i32 3) (fun _ ->
                D.set ctx acc (D.add ctx (D.get ctx acc) (D.i32 1))));
        D.store ctx (D.get ctx acc) (D.gep ctx a t))
  in
  let g = run1 f 8 (fun g -> [| Memory.alloc g 8 |]) in
  let out = Memory.read_int_array g (Memory.Rptr (Memory.Sp_global, 0)) 8 in
  Alcotest.(check (array int)) "9 iterations" (Array.make 8 9) out

let test_uninitialized_read_is_undef () =
  let f =
    D.build_kernel ~name:"u" ~params:[]
      (fun ctx _ ->
        let v = D.local ctx ~name:"v" Types.I32 in
        (* read without any set: the value is undef, usable only where
           poison semantics allow *)
        ignore (D.add ctx (D.get ctx v) (D.i32 1)))
  in
  Verify.run_exn f;
  let uses_undef =
    Ssa.fold_instrs f
      (fun acc i ->
        acc
        || Array.exists
             (fun v -> match v with Ssa.Undef _ -> true | _ -> false)
             i.Ssa.operands)
      false
  in
  check "reads undef" true uses_undef

let test_pointer_typed_variables () =
  (* double buffering via pointer-typed vars, as merge sort uses *)
  let f =
    D.build_kernel ~name:"pv" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let s1 = D.shared_array ctx 32 in
        let s2 = D.shared_array ctx 32 in
        let src = D.local ctx ~name:"src" (Types.Ptr Types.Shared) in
        let dst = D.local ctx ~name:"dst" (Types.Ptr Types.Shared) in
        D.set ctx src s1;
        D.set ctx dst s2;
        D.store ctx t (D.gep ctx (D.get ctx src) t);
        D.sync ctx;
        D.for_up ctx ~from:(D.i32 0) ~until:(D.i32 2) (fun _ ->
            let sv = D.get ctx src and dv = D.get ctx dst in
            D.store ctx
              (D.add ctx (D.load ctx (D.gep ctx sv t)) (D.i32 1))
              (D.gep ctx dv t);
            D.sync ctx;
            D.set ctx src dv;
            D.set ctx dst sv);
        D.store ctx (D.load ctx (D.gep ctx (D.get ctx src) t))
          (D.gep ctx a t))
  in
  let g = run1 f 32 (fun g -> [| Memory.alloc g 32 |]) in
  let out = Memory.read_int_array g (Memory.Rptr (Memory.Sp_global, 0)) 32 in
  Alcotest.(check (array int)) "ping-pong" (Array.init 32 (fun t -> t + 2)) out

let test_type_mismatch_rejected () =
  try
    ignore
      (D.build_kernel ~name:"bad" ~params:[]
         (fun ctx _ ->
           let v = D.local ctx ~name:"v" Types.I32 in
           D.set ctx v (D.i1 true)));
    Alcotest.fail "expected a type error"
  with Invalid_argument _ -> ()

let test_for_with_custom_step () =
  let f =
    D.build_kernel ~name:"step" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let acc = D.local ctx ~name:"acc" Types.I32 in
        D.set ctx acc (D.i32 0);
        (* k = 1, 2, 4, 8, 16 *)
        D.for_ ctx ~name:"k" ~from:(D.i32 1)
          ~cmp:(fun c kv -> D.sle c kv (D.i32 16))
          ~step:(fun c kv -> D.mul c kv (D.i32 2))
          (fun kv -> D.set ctx acc (D.add ctx (D.get ctx acc) kv));
        D.store ctx (D.get ctx acc) (D.gep ctx a t))
  in
  let g = run1 f 4 (fun g -> [| Memory.alloc g 4 |]) in
  let out = Memory.read_int_array g (Memory.Rptr (Memory.Sp_global, 0)) 4 in
  Alcotest.(check (array int)) "geometric loop" (Array.make 4 31) out

let test_float_pipeline () =
  (* the F32 path end to end: DSL, verifier, simulator *)
  let f =
    D.build_kernel ~name:"fp" ~params:[ ("a", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let a = List.hd params in
        let t = D.tid ctx in
        let x = D.sitofp ctx t in
        let y = D.fmul ctx x (D.f32 0.5) in
        let z = D.fadd ctx y (D.f32 1.0) in
        let r = D.select ctx (D.fcmp ctx Op.Fogt z (D.f32 3.0)) (D.f32 3.0) z in
        D.store ctx (D.fptosi ctx (D.fmul ctx r (D.f32 10.0)))
          (D.gep ctx a t))
  in
  let g = run1 f 16 (fun g -> [| Memory.alloc g 16 |]) in
  let out = Memory.read_int_array g (Memory.Rptr (Memory.Sp_global, 0)) 16 in
  let expected =
    Array.init 16 (fun t ->
        let z = (float_of_int t *. 0.5) +. 1.0 in
        int_of_float (Float.min z 3.0 *. 10.0))
  in
  Alcotest.(check (array int)) "float math" expected out

(* ------------------------------------------------------------------ *)
(* SSA invariants of every constructed kernel                          *)

module Gen = Darm_fuzz.Gen
module Kernel = Darm_kernels.Kernel
module Registry = Darm_kernels.Registry

(* The invariants [build_kernel] promises beyond what the verifier
   checks: each phi's incoming blocks are its block's predecessors in
   [Ssa.predecessors] order, no phi is trivial (fewer than two distinct
   operands other than itself), and every instruction operand is still
   in the function.  Returns the violations and the number of phis. *)
let ssa_violations (f : Ssa.func) : string list * int =
  let preds = Ssa.predecessors f in
  let present = Hashtbl.create 256 in
  Ssa.iter_instrs f (fun i -> Hashtbl.replace present i.Ssa.id ());
  let bad = ref [] and phis = ref 0 in
  let report fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
  List.iter
    (fun (b : Ssa.block) ->
      let want = List.map (fun p -> p.Ssa.bid) (Ssa.preds_of preds b) in
      List.iter
        (fun (i : Ssa.instr) ->
          if i.Ssa.op = Op.Phi then begin
            incr phis;
            let got = Array.to_list (Array.map (fun p -> p.Ssa.bid) i.Ssa.blocks) in
            if got <> want then
              report "phi %d in %s: incoming blocks are not the predecessors"
                i.Ssa.id b.Ssa.bname;
            let distinct =
              Array.fold_left
                (fun acc v ->
                  match v with
                  | Ssa.Instr j when j.Ssa.id = i.Ssa.id -> acc
                  | v when List.exists (Ssa.value_equal v) acc -> acc
                  | v -> v :: acc)
                [] i.Ssa.operands
            in
            if List.length distinct < 2 then
              report "phi %d in %s is trivial" i.Ssa.id b.Ssa.bname
          end;
          Array.iter
            (function
              | Ssa.Instr d when not (Hashtbl.mem present d.Ssa.id) ->
                  report "instr %d in %s uses %d, which is not in the function"
                    i.Ssa.id b.Ssa.bname d.Ssa.id
              | _ -> ())
            i.Ssa.operands)
        b.Ssa.instrs)
    f.Ssa.blocks_list;
  (List.rev !bad, !phis)

let check_ssa ~(what : string) (f : Ssa.func) : int =
  match ssa_violations f with
  | [], phis -> phis
  | bad, _ -> Alcotest.failf "%s:\n  %s" what (String.concat "\n  " bad)

let test_ssa_invariants_registry () =
  let phis = ref 0 in
  List.iter
    (fun (k : Kernel.t) ->
      List.iter
        (fun bs ->
          let inst = k.Kernel.make ~seed:1 ~block_size:bs ~n:k.Kernel.default_n in
          let what = Printf.sprintf "%s bs=%d" k.Kernel.tag bs in
          phis := !phis + check_ssa ~what inst.Kernel.func)
        k.Kernel.block_sizes)
    (Registry.all @ Registry.negative);
  List.iter
    (fun (tag, src) ->
      match Darm_frontend.Lower.compile ~name:"hip" src with
      | Ok m ->
          List.iter
            (fun f -> phis := !phis + check_ssa ~what:(tag ^ ".hip") f)
            m.Ssa.funcs
      | Error e -> Alcotest.failf "%s.hip: %s" tag e)
    Darm_kernels.Hip_sources.all;
  check "registry and Mini-HIP kernels have phis" true (!phis > 0)

(* max_depth 0-4, stmts_per_block 1-4, any feature subset *)
let gen_subject : (Gen.cfg * int) QCheck2.Gen.t =
  QCheck2.Gen.(
    let* max_depth = int_range 0 4 in
    let* stmts_per_block = int_range 1 4 in
    let* flags = array_repeat 6 bool in
    let+ seed = int_range 0 100_000 in
    let features =
      {
        Gen.loops_uniform = flags.(0);
        loops_divergent = flags.(1);
        barriers = flags.(2);
        shared_tile = flags.(3);
        nested_diamonds = flags.(4);
        switch_ladders = flags.(5);
      }
    in
    ({ Gen.default_cfg with Gen.max_depth; stmts_per_block; features }, seed))

let print_gen_subject ((cfg : Gen.cfg), seed) =
  Printf.sprintf "seed %d, max_depth %d, stmts_per_block %d, features %s" seed
    cfg.Gen.max_depth cfg.Gen.stmts_per_block
    (Gen.features_to_string cfg.Gen.features)

let prop_ssa_invariants_gen =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:50 ~print:print_gen_subject
       ~name:"ssa invariants: generated kernels" gen_subject
       (fun (cfg, seed) ->
         ignore
           (check_ssa ~what:(print_gen_subject (cfg, seed))
              (Gen.generate ~cfg ~seed ()));
         true))

let suites =
  [
    ( "dsl",
      [
        Alcotest.test_case "no phi straight-line" `Quick
          test_no_phi_for_straightline;
        Alcotest.test_case "pruned phi (unassigned)" `Quick
          test_no_phi_when_var_unchanged_in_branch;
        Alcotest.test_case "phi only for assigned" `Quick
          test_phi_only_for_assigned_branch_var;
        Alcotest.test_case "while cond uses loop phi" `Quick
          test_while_cond_uses_loop_phi;
        Alcotest.test_case "nested loop vars" `Quick
          test_nested_loops_independent_vars;
        Alcotest.test_case "uninitialized is undef" `Quick
          test_uninitialized_read_is_undef;
        Alcotest.test_case "pointer-typed vars" `Quick
          test_pointer_typed_variables;
        Alcotest.test_case "type mismatch rejected" `Quick
          test_type_mismatch_rejected;
        Alcotest.test_case "custom step loop" `Quick test_for_with_custom_step;
        Alcotest.test_case "float pipeline" `Quick test_float_pipeline;
        Alcotest.test_case "ssa invariants: registry and Mini-HIP" `Quick
          test_ssa_invariants_registry;
        prop_ssa_invariants_gen;
      ] );
  ]
