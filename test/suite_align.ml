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

(* The alignment of two blocks holding [l] and [r], rendered with the
   instructions' names: "(a b)" a melded pair, "<a" and ">b" gaps. *)
let aligned (l : (string * Ssa.instr) list) (r : (string * Ssa.instr) list) =
  let block instrs =
    let b = Ssa.mk_block "b" in
    List.iter (fun (_, i) -> Ssa.append_instr b i) instrs;
    b
  in
  let name i = fst (List.find (fun (_, j) -> j == i) (l @ r)) in
  IA.align_blocks Darm_analysis.Latency.default (block l) (block r)
  |> List.map (function
       | Seq.Both (a, b) -> Printf.sprintf "(%s %s)" (name a) (name b)
       | Seq.Left a -> "<" ^ name a
       | Seq.Right b -> ">" ^ name b)
  |> String.concat ""

let test_match_instrs () =
  let a = mk (Op.Ibin Op.Add) [| Ssa.Int 1; Ssa.Int 2 |] Types.I32 in
  let b = mk (Op.Ibin Op.Add) [| Ssa.Int 1; Ssa.Int 2 |] Types.I32 in
  let c = mk (Op.Ibin Op.Sub) [| Ssa.Int 1; Ssa.Int 2 |] Types.I32 in
  Alcotest.(check string) "same opcode matches" "(a b)"
    (aligned [ ("a", a) ] [ ("b", b) ]);
  Alcotest.(check string) "different opcode does not" ">c<a"
    (aligned [ ("a", a) ] [ ("c", c) ])

let test_match_loads_cross_space () =
  let lsh = mk Op.Load [| Ssa.Undef (Types.Ptr Types.Shared) |] Types.I32 in
  let lgl = mk Op.Load [| Ssa.Undef (Types.Ptr Types.Global) |] Types.I32 in
  let st =
    mk Op.Store [| Ssa.Int 0; Ssa.Undef (Types.Ptr Types.Shared) |] Types.Void
  in
  Alcotest.(check string) "loads of different spaces match" "(lsh lgl)"
    (aligned [ ("lsh", lsh) ] [ ("lgl", lgl) ]);
  Alcotest.(check string) "load does not match store" ">st<lsh"
    (aligned [ ("lsh", lsh) ] [ ("st", st) ])

(* FP_I prefers the pair that needs no select: [a] melds with [same]
   rather than with [diff], whose two operands differ *)
let test_fp_i_scoring () =
  let x = Ssa.Int 1 and y = Ssa.Int 2 in
  let a = mk (Op.Ibin Op.Add) [| x; y |] Types.I32 in
  let diff = mk (Op.Ibin Op.Add) [| Ssa.Int 9; Ssa.Int 8 |] Types.I32 in
  let same = mk (Op.Ibin Op.Add) [| x; y |] Types.I32 in
  Alcotest.(check string) "selects reduce profit" ">diff(a same)"
    (aligned [ ("a", a) ] [ ("diff", diff); ("same", same) ]);
  Alcotest.(check string) "in either order" "(a same)>diff"
    (aligned [ ("a", a) ] [ ("same", same); ("diff", diff) ])

(* Melding a shared load saves more than melding four adds: with the
   two orders crossed, either the loads or the adds meld, each leaving
   two gap runs, and the alignment keeps the loads *)
let test_fp_i_memory_dominates () =
  let p = Ssa.Undef (Types.Ptr Types.Shared) in
  let load n = (n, mk Op.Load [| p |] Types.I32) in
  let add n = (n, mk (Op.Ibin Op.Add) [| Ssa.Int 1; Ssa.Int 2 |] Types.I32) in
  Alcotest.(check string) "load >> four adds"
    ">b1>b2>b3>b4(l1 l2)<a1<a2<a3<a4"
    (aligned
       [ load "l1"; add "a1"; add "a2"; add "a3"; add "a4" ]
       [ add "b1"; add "b2"; add "b3"; add "b4"; load "l2" ])

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
