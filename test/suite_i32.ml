(* Differential property tests of the two's-complement i32 ALU: the
   simulator's evaluator and the constant folder must agree with an
   independent oracle built on the stdlib's Int32 (true 32-bit machine
   arithmetic), including at the wrap-around boundaries the seed
   implementation got wrong. *)

open Darm_ir
module Sim = Darm_sim.Simulator
module CF = Darm_transforms.Constfold

let qcheck t = QCheck_alcotest.to_alcotest t

let min_i32 = -0x80000000
let max_i32 = 0x7FFFFFFF

(* ------------------------------------------------------------------ *)
(* Oracle: evaluate through Int32, the one integer type in the stdlib
   with real 32-bit semantics.  Int32.of_int truncates modulo 2^32,
   matching I32.to_i32 on arbitrary native ints.  C leaves
   INT_MIN / -1 undefined, the IR wraps it; the oracle pins the
   wrapped value explicitly rather than trusting Int32.div with it. *)
let oracle (op : Op.ibinop) (x : int) (y : int) : int option =
  let a = Int32.of_int x and b = Int32.of_int y in
  let sh = Int32.to_int b land 31 in
  let r =
    match op with
    | Op.Add -> Some (Int32.add a b)
    | Op.Sub -> Some (Int32.sub a b)
    | Op.Mul -> Some (Int32.mul a b)
    | Op.Sdiv ->
        if b = 0l then None
        else if a = Int32.min_int && b = -1l then Some Int32.min_int
        else Some (Int32.div a b)
    | Op.Srem ->
        if b = 0l then None
        else if a = Int32.min_int && b = -1l then Some 0l
        else Some (Int32.rem a b)
    | Op.And -> Some (Int32.logand a b)
    | Op.Or -> Some (Int32.logor a b)
    | Op.Xor -> Some (Int32.logxor a b)
    | Op.Shl -> Some (Int32.shift_left a sh)
    | Op.Lshr -> Some (Int32.shift_right_logical a sh)
    | Op.Ashr -> Some (Int32.shift_right a sh)
    | Op.Smin -> Some (if Int32.compare a b <= 0 then a else b)
    | Op.Smax -> Some (if Int32.compare a b >= 0 then a else b)
  in
  Option.map Int32.to_int r

let all_ibinops : Op.ibinop list =
  [
    Op.Add; Op.Sub; Op.Mul; Op.Sdiv; Op.Srem; Op.And; Op.Or; Op.Xor;
    Op.Shl; Op.Lshr; Op.Ashr; Op.Smin; Op.Smax;
  ]

let ibinop_name (op : Op.ibinop) : string =
  match op with
  | Op.Add -> "add" | Op.Sub -> "sub" | Op.Mul -> "mul"
  | Op.Sdiv -> "sdiv" | Op.Srem -> "srem" | Op.And -> "and"
  | Op.Or -> "or" | Op.Xor -> "xor" | Op.Shl -> "shl"
  | Op.Lshr -> "lshr" | Op.Ashr -> "ashr" | Op.Smin -> "smin"
  | Op.Smax -> "smax"

(* operands concentrated on the overflow boundaries, plus arbitrary
   native ints well outside the i32 range (operands must be
   canonicalized before evaluation, so out-of-range inputs exercise
   the truncation path) *)
let operand_gen : int QCheck2.Gen.t =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [
            min_i32; min_i32 + 1; -1; 0; 1; 2; 31; 32; max_i32;
            max_i32 - 1; 0x55555555; -0x55555556;
          ];
        int_range min_i32 max_i32;
        int_range (-0x4000_0000_0000_0000) 0x3FFF_FFFF_FFFF_FFFF;
      ])

let case_gen : (Op.ibinop * int * int) QCheck2.Gen.t =
  QCheck2.Gen.(
    map2
      (fun op (x, y) -> (op, x, y))
      (oneofl all_ibinops)
      (pair operand_gen operand_gen))

let print_case (op, x, y) = Printf.sprintf "%s %d %d" (ibinop_name op) x y

let sim_eval (op : Op.ibinop) x y : int option =
  match Sim.eval_ibin op x y with
  | v -> Some v
  | exception Sim.Sim_error _ -> None

let test_simulator_matches_oracle =
  qcheck
    (QCheck2.Test.make ~count:2000 ~print:print_case
       ~name:"simulator eval_ibin = Int32 oracle" case_gen
       (fun (op, x, y) -> sim_eval op x y = oracle op x y))

(* the simulator's non-allocating evaluator, raising on zero division *)
let test_eval_exn_matches_oracle =
  qcheck
    (QCheck2.Test.make ~count:2000 ~print:print_case
       ~name:"I32.eval_exn = Int32 oracle" case_gen
       (fun (op, x, y) ->
         (match I32.eval_exn op x y with
         | v -> Some v
         | exception Division_by_zero -> None)
         = oracle op x y))

let test_constfold_matches_oracle =
  qcheck
    (QCheck2.Test.make ~count:2000 ~print:print_case
       ~name:"constfold fold_ibin = Int32 oracle" case_gen
       (fun (op, x, y) -> CF.fold_ibin op x y = oracle op x y))

let test_constfold_matches_simulator =
  qcheck
    (QCheck2.Test.make ~count:2000 ~print:print_case
       ~name:"constfold and simulator agree" case_gen
       (fun (op, x, y) -> CF.fold_ibin op x y = sim_eval op x y))

let test_icmp_matches_int32 =
  let preds =
    [
      (Op.Ieq, "eq", fun c -> c = 0);
      (Op.Ine, "ne", fun c -> c <> 0);
      (Op.Islt, "slt", fun c -> c < 0);
      (Op.Isle, "sle", fun c -> c <= 0);
      (Op.Isgt, "sgt", fun c -> c > 0);
      (Op.Isge, "sge", fun c -> c >= 0);
    ]
  in
  qcheck
    (QCheck2.Test.make ~count:2000
       ~print:(fun (i, x, y) ->
         let _, name, _ = List.nth preds i in
         Printf.sprintf "%s %d %d" name x y)
       ~name:"fold_icmp = Int32 compare"
       QCheck2.Gen.(
         map2
           (fun i (x, y) -> (i, x, y))
           (int_range 0 5)
           (pair operand_gen operand_gen))
       (fun (i, x, y) ->
         let pred, _, of_cmp = List.nth preds i in
         CF.fold_icmp pred x y
         = of_cmp (Int32.compare (Int32.of_int x) (Int32.of_int y))))

(* ------------------------------------------------------------------ *)
(* Pinned boundary cases — the exact values the seed implementation
   evaluated in native 63-bit arithmetic. *)

let check_eval name op x y expected () =
  Alcotest.(check int) name expected (Sim.eval_ibin op x y)

let unit_cases =
  [
    Alcotest.test_case "add wraps at max_int32" `Quick
      (check_eval "max+1" Op.Add max_i32 1 min_i32);
    Alcotest.test_case "sub wraps at min_int32" `Quick
      (check_eval "min-1" Op.Sub min_i32 1 max_i32);
    Alcotest.test_case "mul wraps" `Quick
      (check_eval "65536*65536" Op.Mul 65536 65536 0);
    Alcotest.test_case "mul keeps low bits" `Quick
      (check_eval "k*k" Op.Mul 123456789 987654321
         (Int32.to_int (Int32.mul 123456789l 987654321l)));
    Alcotest.test_case "shl into the sign bit" `Quick
      (check_eval "1<<31" Op.Shl 1 31 min_i32);
    Alcotest.test_case "shl then ashr sign-extends" `Quick
      (check_eval "(1<<31)>>31" Op.Ashr min_i32 31 (-1));
    Alcotest.test_case "lshr of negative is logical" `Quick
      (check_eval "-1 lshr 1" Op.Lshr (-1) 1 max_i32);
    Alcotest.test_case "ashr truncates first" `Quick
      (* 2^32 + 8 is 8 as an i32; a native asr would see 2^32 *)
      (check_eval "(2^32+8) ashr 1" Op.Ashr 0x100000008 1 4);
    Alcotest.test_case "shift count is masked to 5 bits" `Quick
      (check_eval "1<<33" Op.Shl 1 33 2);
    Alcotest.test_case "sdiv min/-1 wraps" `Quick
      (check_eval "min/-1" Op.Sdiv min_i32 (-1) min_i32);
    Alcotest.test_case "sdiv by zero traps" `Quick (fun () ->
        match Sim.eval_ibin Op.Sdiv 1 0 with
        | _ -> Alcotest.fail "expected Sim_error"
        | exception Sim.Sim_error _ -> ());
    Alcotest.test_case "srem by zero traps" `Quick (fun () ->
        match Sim.eval_ibin Op.Srem 1 0 with
        | _ -> Alcotest.fail "expected Sim_error"
        | exception Sim.Sim_error _ -> ());
    Alcotest.test_case "sdiv/srem by zero does not fold" `Quick (fun () ->
        Alcotest.(check bool)
          "no fold" true
          (CF.fold_ibin Op.Sdiv 1 0 = None && CF.fold_ibin Op.Srem 1 0 = None));
    Alcotest.test_case "to_i32/of_i32 round trip" `Quick (fun () ->
        List.iter
          (fun v ->
            Alcotest.(check int)
              (Printf.sprintf "canon %d" v)
              (Int32.to_int (Int32.of_int v))
              (I32.to_i32 v);
            Alcotest.(check int)
              (Printf.sprintf "low bits %d" v)
              (Int32.to_int (Int32.of_int v) land 0xFFFFFFFF)
              (I32.of_i32 (I32.to_i32 v)))
          [ min_i32; -1; 0; 1; max_i32; 0x123456789; -0x123456789 ]);
  ]

let suites =
  [
    ( "i32",
      unit_cases
      @ [
          test_simulator_matches_oracle;
          test_eval_exn_matches_oracle;
          test_constfold_matches_oracle;
          test_constfold_matches_simulator;
          test_icmp_matches_int32;
        ] );
  ]
