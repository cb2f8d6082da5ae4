(* Sequence alignment and instruction-alignment scoring. *)

open Darm_ir
module Seq = Darm_align.Sequence
module IA = Darm_align.Instr_align

let check = Alcotest.(check bool)

let char_score a b = if a = b then Some 2. else None

let render al =
  String.concat ""
    (List.map
       (function
         | Seq.Both (a, _) -> Printf.sprintf "(%c)" a
         | Seq.Left a -> Printf.sprintf "<%c" a
         | Seq.Right b -> Printf.sprintf ">%c" b)
       al)

let test_nw_identical () =
  let a = [| 'a'; 'b'; 'c' |] in
  let al, score =
    Seq.needleman_wunsch ~score:char_score ~gap_open:(-1.) ~gap_extend:(-0.5)
      a a
  in
  Alcotest.(check string) "all match" "(a)(b)(c)" (render al);
  Alcotest.(check (float 0.001)) "score" 6. score

let test_nw_gap () =
  let a = [| 'a'; 'b'; 'c'; 'd' |] and b = [| 'a'; 'd' |] in
  let al, _ =
    Seq.needleman_wunsch ~score:char_score ~gap_open:(-1.) ~gap_extend:(-0.5)
      a b
  in
  Alcotest.(check string) "gap run" "(a)<b<c(d)" (render al)

let test_nw_affine_prefers_one_run () =
  (* with expensive open / free extend, gaps should cluster *)
  let a = [| 'x'; 'x'; 'a'; 'b' |] and b = [| 'a'; 'b' |] in
  let al, _ =
    Seq.needleman_wunsch ~score:char_score ~gap_open:(-3.) ~gap_extend:0. a b
  in
  Alcotest.(check string) "one clustered run" "<x<x(a)(b)" (render al)

let test_nw_forbidden_pairs () =
  (* None score must never align *)
  let score a b = if a = b && a <> 'z' then Some 1. else None in
  let a = [| 'z' |] and b = [| 'z' |] in
  let al, _ =
    Seq.needleman_wunsch ~score ~gap_open:(-1.) ~gap_extend:(-1.) a b
  in
  check "z never aligned with z" true
    (List.for_all (function Seq.Both _ -> false | _ -> true) al)

let test_nw_order_preserved () =
  let a = [| 'a'; 'b' |] and b = [| 'b'; 'a' |] in
  let al, _ =
    Seq.needleman_wunsch ~score:char_score ~gap_open:(-1.) ~gap_extend:(-1.)
      a b
  in
  (* only one of the two letters can match without breaking order *)
  let matches =
    List.length (List.filter (function Seq.Both _ -> true | _ -> false) al)
  in
  check "at most one match" true (matches <= 1)

(* --- instruction-level matching --- *)

let mk op operands ty = Ssa.mk_instr op operands [||] ty

let test_match_instrs () =
  let a = mk (Op.Ibin Op.Add) [| Ssa.Int 1; Ssa.Int 2 |] Types.I32 in
  let b = mk (Op.Ibin Op.Add) [| Ssa.Int 3; Ssa.Int 4 |] Types.I32 in
  let c = mk (Op.Ibin Op.Sub) [| Ssa.Int 3; Ssa.Int 4 |] Types.I32 in
  check "same opcode matches" true (IA.match_instrs a b);
  check "different opcode does not" false (IA.match_instrs a c)

let test_match_loads_cross_space () =
  let lsh = mk Op.Load [| Ssa.Undef (Types.Ptr Types.Shared) |] Types.I32 in
  let lgl = mk Op.Load [| Ssa.Undef (Types.Ptr Types.Global) |] Types.I32 in
  let st =
    mk Op.Store [| Ssa.Int 0; Ssa.Undef (Types.Ptr Types.Shared) |] Types.Void
  in
  check "loads of different spaces match" true (IA.match_instrs lsh lgl);
  check "load does not match store" false (IA.match_instrs lsh st)

let test_fp_i_scoring () =
  let c = Darm_analysis.Latency.default in
  let x = Ssa.Int 1 and y = Ssa.Int 2 in
  let a = mk (Op.Ibin Op.Add) [| x; y |] Types.I32 in
  let b_same = mk (Op.Ibin Op.Add) [| x; y |] Types.I32 in
  let b_diff = mk (Op.Ibin Op.Add) [| Ssa.Int 9; Ssa.Int 8 |] Types.I32 in
  (match IA.fp_i c a b_same with
  | Some s -> Alcotest.(check (float 0.001)) "no selects" (float_of_int c.Darm_analysis.Latency.alu) s
  | None -> Alcotest.fail "expected match");
  match IA.fp_i c a b_diff, IA.fp_i c a b_same with
  | Some sd, Some ss -> check "selects reduce profit" true (sd < ss)
  | _ -> Alcotest.fail "expected matches"

let test_fp_i_memory_dominates () =
  (* melding a shared load saves far more than melding an add *)
  let c = Darm_analysis.Latency.default in
  let p = Ssa.Undef (Types.Ptr Types.Shared) in
  let l1 = mk Op.Load [| p |] Types.I32 in
  let l2 = mk Op.Load [| p |] Types.I32 in
  let a1 = mk (Op.Ibin Op.Add) [| Ssa.Int 1; Ssa.Int 2 |] Types.I32 in
  let a2 = mk (Op.Ibin Op.Add) [| Ssa.Int 1; Ssa.Int 2 |] Types.I32 in
  match IA.fp_i c l1 l2, IA.fp_i c a1 a2 with
  | Some sl, Some sa -> check "load >> add" true (sl > sa *. 4.)
  | _ -> Alcotest.fail "expected matches"

let suites =
  [
    ( "align",
      [
        Alcotest.test_case "nw identical" `Quick test_nw_identical;
        Alcotest.test_case "nw gap" `Quick test_nw_gap;
        Alcotest.test_case "nw affine clustering" `Quick
          test_nw_affine_prefers_one_run;
        Alcotest.test_case "nw forbidden pairs" `Quick test_nw_forbidden_pairs;
        Alcotest.test_case "nw order preserved" `Quick test_nw_order_preserved;
        Alcotest.test_case "match_instrs" `Quick test_match_instrs;
        Alcotest.test_case "match loads cross-space" `Quick
          test_match_loads_cross_space;
        Alcotest.test_case "fp_i scoring" `Quick test_fp_i_scoring;
        Alcotest.test_case "fp_i memory dominates" `Quick
          test_fp_i_memory_dominates;
      ] );
  ]
