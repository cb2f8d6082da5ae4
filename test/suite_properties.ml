(* Property-based tests (qcheck): alignment optimality and legality,
   analysis invariants over randomly generated kernels, simulator
   determinism, profitability bounds. *)

open Darm_ir
module Seq = Darm_align.Sequence
module A = Darm_analysis
module Gen = Darm_fuzz.Gen

let qcheck t = QCheck_alcotest.to_alcotest t

let small_string_gen =
  QCheck2.Gen.(string_size ~gen:(char_range 'a' 'd') (0 -- 6))

(* brute-force optimal global alignment score for the linear-gap case *)
let brute_force_score ~(score : char -> char -> float option) ~(gap : float)
    (a : string) (b : string) : float =
  let n = String.length a and m = String.length b in
  let memo = Hashtbl.create 64 in
  let rec go i j =
    if i = n && j = m then 0.
    else
      match Hashtbl.find_opt memo (i, j) with
      | Some v -> v
      | None ->
          let candidates =
            (if i < n then [ gap +. go (i + 1) j ] else [])
            @ (if j < m then [ gap +. go i (j + 1) ] else [])
            @
            if i < n && j < m then
              match score a.[i] b.[j] with
              | Some s -> [ s +. go (i + 1) (j + 1) ]
              | None -> []
            else []
          in
          let v = List.fold_left max neg_infinity candidates in
          (* at the boundary, gaps are the only move, so candidates is
             never empty unless both are exhausted *)
          Hashtbl.replace memo (i, j) v;
          v
  in
  go 0 0

let char_score a b = if a = b then Some 2. else None

let test_nw_matches_brute_force =
  qcheck
    (QCheck2.Test.make ~count:200 ~name:"NW score equals brute force"
       QCheck2.Gen.(pair small_string_gen small_string_gen)
       (fun (a, b) ->
         let arr s = Array.init (String.length s) (String.get s) in
         let _, nw =
           Seq.needleman_wunsch ~score:char_score ~gap_open:(-1.)
             ~gap_extend:(-1.) (arr a) (arr b)
         in
         let bf = brute_force_score ~score:char_score ~gap:(-1.) a b in
         Float.abs (nw -. bf) < 1e-9))

let test_nw_alignment_is_legal =
  qcheck
    (QCheck2.Test.make ~count:200
       ~name:"NW alignment covers both sequences in order"
       QCheck2.Gen.(pair small_string_gen small_string_gen)
       (fun (a, b) ->
         let arr s = Array.init (String.length s) (String.get s) in
         let al, _ =
           Seq.needleman_wunsch ~score:char_score ~gap_open:(-1.)
             ~gap_extend:(-0.5) (arr a) (arr b)
         in
         let left =
           List.filter_map
             (function Seq.Both (x, _) | Seq.Left x -> Some x | _ -> None)
             al
         in
         let right =
           List.filter_map
             (function Seq.Both (_, y) | Seq.Right y -> Some y | _ -> None)
             al
         in
         (* every element appears exactly once, in sequence order *)
         String.init (List.length left) (List.nth left) = a
         && String.init (List.length right) (List.nth right) = b))

(* --- invariants of the analyses over random kernels --- *)

let gen_cfg = { Gen.smoke_cfg with Gen.array_size = 64 }

let random_func seed = Gen.generate ~cfg:gen_cfg ~seed ()

let test_domtree_invariants =
  qcheck
    (QCheck2.Test.make ~count:40 ~name:"dominator-tree invariants"
       QCheck2.Gen.small_int
       (fun seed ->
         let f = random_func seed in
         let dt = A.Domtree.compute f in
         let entry = Ssa.entry_block f in
         let blocks = A.Cfg.reachable_blocks f in
         List.for_all
           (fun b ->
             A.Domtree.dominates dt entry b
             && A.Domtree.dominates dt b b
             &&
             match A.Domtree.idom dt b with
             | None -> b.Ssa.bid = entry.Ssa.bid
             | Some d ->
                 A.Domtree.strictly_dominates dt d b
                 (* the idom dominates every other strict dominator's
                    candidate: it must be dominated by all of them *)
                 && List.for_all
                      (fun c ->
                        if A.Domtree.strictly_dominates dt c b then
                          A.Domtree.dominates dt c d
                        else true)
                      blocks)
           blocks))

let test_postdom_invariants =
  qcheck
    (QCheck2.Test.make ~count:40 ~name:"post-dominator invariants"
       QCheck2.Gen.small_int
       (fun seed ->
         let f = random_func seed in
         let pdt = A.Domtree.compute_post f in
         let exits = A.Cfg.exit_blocks f in
         List.for_all
           (fun b ->
             (* every reachable block is post-dominated by itself, and
                its ipdom (when not the virtual exit) post-dominates it *)
             A.Domtree.dominates pdt b b
             &&
             match A.Domtree.idom pdt b with
             | None -> true
             | Some p -> A.Domtree.strictly_dominates pdt p b)
           (A.Cfg.reachable_blocks f)
         && List.for_all
              (fun e ->
                match A.Domtree.idom pdt e with None -> true | Some _ -> false)
              exits))

let test_divergence_requires_tid =
  qcheck
    (QCheck2.Test.make ~count:40
       ~name:"divergent values are data/sync dependent on thread.idx"
       QCheck2.Gen.small_int
       (fun seed ->
         let f = random_func seed in
         let dvg = A.Divergence.compute f in
         (* our random kernels always read thread.idx, so at least the
            tid itself is divergent; and no divergence at all implies no
            divergent branches *)
         let has_divergent_instr =
           Ssa.fold_instrs f
             (fun acc i -> acc || A.Divergence.is_divergent_instr dvg i)
             false
         in
         (not has_divergent_instr)
         || Ssa.fold_instrs f
              (fun acc i -> acc || i.Ssa.op = Op.Thread_idx)
              false))

let test_fp_b_bounds =
  qcheck
    (QCheck2.Test.make ~count:40 ~name:"FP_B is within [0, 0.5]"
       QCheck2.Gen.small_int
       (fun seed ->
         let f = random_func seed in
         let lat = A.Latency.default in
         let blocks = A.Cfg.reachable_blocks f in
         List.for_all
           (fun b1 ->
             List.for_all
               (fun b2 ->
                 let p = Darm_core.Profitability.fp_b lat b1 b2 in
                 p >= 0. && p <= 0.5 +. 1e-9)
               blocks)
           blocks))

let test_simulator_deterministic =
  qcheck
    (QCheck2.Test.make ~count:20 ~name:"simulation is deterministic"
       QCheck2.Gen.small_int
       (fun seed ->
         let run () =
           let inst = Gen.instance ~cfg:gen_cfg ~seed ~block_size:64 () in
           let m =
             Darm_sim.Simulator.run inst.Darm_kernels.Kernel.func
               ~args:inst.Darm_kernels.Kernel.args
               ~global:inst.Darm_kernels.Kernel.global
               inst.Darm_kernels.Kernel.launch
           in
           (m.Darm_sim.Metrics.cycles, inst.Darm_kernels.Kernel.read_result ())
         in
         let c1, o1 = run () and c2, o2 = run () in
         c1 = c2 && Darm_kernels.Kernel.rv_array_equal o1 o2))

let test_meld_idempotent =
  qcheck
    (QCheck2.Test.make ~count:20 ~name:"melding reaches a fixpoint"
       QCheck2.Gen.small_int
       (fun seed ->
         let f = random_func seed in
         ignore (Darm_core.Pass.run f);
         (* a second run must find nothing left to meld *)
         let again = Darm_core.Pass.run f in
         again.Darm_core.Pass.melds_applied = 0))

let suites =
  [
    ( "properties",
      [
        test_nw_matches_brute_force;
        test_nw_alignment_is_legal;
        test_domtree_invariants;
        test_postdom_invariants;
        test_divergence_requires_tid;
        test_fp_b_bounds;
        test_simulator_deterministic;
        test_meld_idempotent;
      ] );
  ]
