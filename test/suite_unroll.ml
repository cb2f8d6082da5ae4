(* Loop unrolling: shape detection, semantics, and the unroll-then-meld
   synergy the paper attributes to HIPCC's pipeline. *)

open Darm_ir
module T = Darm_transforms
module D = Dsl
module Sim = Darm_sim.Simulator
module Memory = Darm_sim.Memory

let check = Alcotest.(check bool)

let count_loops f = List.length (Darm_analysis.Loops.compute f).Darm_analysis.Loops.loops

let sum_kernel trip =
  D.build_kernel ~name:"sum" ~params:[ ("out", Types.Ptr Types.Global) ]
    (fun ctx params ->
      let out = List.hd params in
      let t = D.tid ctx in
      let acc = D.local ctx ~name:"acc" Types.I32 in
      D.set ctx acc (D.i32 0);
      D.for_up ctx ~from:(D.i32 0) ~until:(D.i32 trip) (fun iv ->
          D.set ctx acc (D.add ctx (D.get ctx acc) (D.mul ctx iv t)));
      D.store ctx (D.get ctx acc) (D.gep ctx out t))

let run_sum f n =
  let g = Memory.create ~space:Memory.Sp_global n in
  let out = Memory.alloc g n in
  ignore (Sim.run f ~args:[| out |] ~global:g { Sim.grid_dim = 1; block_dim = n });
  Memory.read_int_array g out n

let test_unroll_counted_loop () =
  let f = sum_kernel 5 in
  check "one loop before" true (count_loops f = 1);
  let n = T.Loop_unroll.run f in
  Verify.run_exn f;
  check "one loop unrolled" true (n = 1);
  check "no loops after" true (count_loops f = 0);
  let out = run_sum f 8 in
  let expected = Array.init 8 (fun t -> 10 * t) in
  Alcotest.(check (array int)) "sums preserved" expected out

let test_unroll_trip_zero () =
  let f = sum_kernel 0 in
  let n = T.Loop_unroll.run f in
  Verify.run_exn f;
  check "unrolled" true (n = 1);
  let out = run_sum f 4 in
  Alcotest.(check (array int)) "all zero" [| 0; 0; 0; 0 |] out

let test_unroll_respects_max_trip () =
  let f = sum_kernel 100 in
  let n = T.Loop_unroll.run ~max_trip:16 f in
  check "too long: not unrolled" true (n = 0 && count_loops f = 1)

let test_unroll_skips_dynamic_bounds () =
  let f =
    D.build_kernel ~name:"dyn" ~params:[ ("out", Types.Ptr Types.Global); ("n", Types.I32) ]
      (fun ctx params ->
        let out, n = match params with [ o; n ] -> (o, n) | _ -> assert false in
        let t = D.tid ctx in
        let acc = D.local ctx ~name:"acc" Types.I32 in
        D.set ctx acc (D.i32 0);
        D.for_up ctx ~from:(D.i32 0) ~until:n (fun iv ->
            D.set ctx acc (D.add ctx (D.get ctx acc) iv));
        D.store ctx (D.get ctx acc) (D.gep ctx out t))
  in
  check "dynamic bound not unrolled" true (T.Loop_unroll.run f = 0)

let test_unroll_nested () =
  let f =
    D.build_kernel ~name:"nested" ~params:[ ("out", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let out = List.hd params in
        let t = D.tid ctx in
        let acc = D.local ctx ~name:"acc" Types.I32 in
        D.set ctx acc (D.i32 0);
        D.for_up ctx ~name:"i" ~from:(D.i32 0) ~until:(D.i32 3) (fun iv ->
            D.for_up ctx ~name:"j" ~from:(D.i32 0) ~until:(D.i32 2) (fun jv ->
                D.set ctx acc
                  (D.add ctx (D.get ctx acc) (D.mul ctx iv jv))));
        D.store ctx (D.get ctx acc) (D.gep ctx out t))
  in
  let n = T.Loop_unroll.run f in
  Verify.run_exn f;
  (* the inner loop is unrolled once per outer iteration after the outer
     unroll, or inside-out: either way no loops remain *)
  check "all loops gone" true (n >= 2 && count_loops f = 0);
  let out = run_sum f 4 in
  (* sum over i<3, j<2 of i*j = (0+1+2)*(0+1) = 3 *)
  Alcotest.(check (array int)) "nested sums" [| 3; 3; 3; 3 |] out

let test_unroll_divergent_body () =
  (* unrolling a loop whose body contains a divergent if/else must
     preserve semantics; afterwards DARM can meld each instance *)
  let build () =
    D.build_kernel ~name:"divloop" ~params:[ ("out", Types.Ptr Types.Global) ]
      (fun ctx params ->
        let out = List.hd params in
        let t = D.tid ctx in
        let acc = D.local ctx ~name:"acc" Types.I32 in
        D.set ctx acc t;
        D.for_up ctx ~from:(D.i32 0) ~until:(D.i32 4) (fun iv ->
            D.if_ ctx
              (D.eq ctx (D.and_ ctx (D.add ctx t iv) (D.i32 1)) (D.i32 0))
              (fun () ->
                D.set ctx acc (D.add ctx (D.get ctx acc) (D.mul ctx iv (D.i32 3))))
              (fun () ->
                D.set ctx acc (D.sub ctx (D.get ctx acc) (D.mul ctx iv (D.i32 3)))));
        D.store ctx (D.get ctx acc) (D.gep ctx out t))
  in
  let base = build () in
  let opt = build () in
  let unrolled = T.Loop_unroll.run opt in
  Verify.run_exn opt;
  check "unrolled" true (unrolled = 1);
  let stats = Darm_core.Pass.run ~checked:true opt in
  check "unroll exposes melds" true (stats.Darm_core.Pass.melds_applied >= 1);
  let out_base = run_sum base 16 in
  let out_opt = run_sum opt 16 in
  Alcotest.(check (array int)) "unroll+meld preserves output" out_base out_opt

let test_unroll_fuzz () =
  let transform f =
    ignore (T.Loop_unroll.run ~max_trip:8 f);
    Verify.run_exn f;
    ignore (Darm_core.Pass.run ~checked:true f)
  in
  (* every feature, constant-trip loops included, so unrolling has
     something to expose to the melder *)
  Testlib.run_gen_seeds ~name:"unroll+meld" ~transform
    ~seeds:(Testlib.seeds 200 219) ()

let suites =
  [
    ( "unroll",
      [
        Alcotest.test_case "counted loop" `Quick test_unroll_counted_loop;
        Alcotest.test_case "trip zero" `Quick test_unroll_trip_zero;
        Alcotest.test_case "max trip" `Quick test_unroll_respects_max_trip;
        Alcotest.test_case "dynamic bounds skipped" `Quick
          test_unroll_skips_dynamic_bounds;
        Alcotest.test_case "nested loops" `Quick test_unroll_nested;
        Alcotest.test_case "divergent body + meld" `Quick
          test_unroll_divergent_body;
        Alcotest.test_case "fuzz unroll+meld" `Quick test_unroll_fuzz;
      ] );
  ]
