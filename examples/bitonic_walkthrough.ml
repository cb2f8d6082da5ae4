(* The paper's running example, stage by stage: the bitonic sort kernel
   (paper Fig. 1 / Fig. 5), its meldable divergent region, the subgraph
   decomposition, and the CFG before and after melding.

     dune exec examples/bitonic_walkthrough.exe
*)

open Darm_ir
module A = Darm_analysis
module C = Darm_core
module K = Darm_kernels

let () =
  let block_size = 64 in
  let f = K.Bitonic.build ~block_size in

  print_endline "=== bitonic sort: original CFG (paper Fig. 5a) ===";
  print_endline (Printer.cfg_summary f);

  (* --- region detection, as the pass does it --- *)
  let dvg = A.Divergence.compute f in
  let dt = A.Domtree.compute f in
  let pdt = A.Domtree.compute_post f in
  let region =
    List.fold_left
      (fun acc b ->
        match acc with
        | Some _ -> acc
        | None -> C.Region.detect dvg dt pdt b)
      None
      (A.Cfg.reachable_blocks f)
  in
  (match region with
  | None -> failwith "no meldable divergent region found?!"
  | Some r ->
      Printf.printf
        "\n=== meldable divergent region (Definition 5) ===\n\
         entry %s (the divergent branch on (tid & k) == 0)\n\
         exit  %s (the immediate post-dominator)\n"
        r.C.Region.r_entry.Ssa.bname r.C.Region.r_exit.Ssa.bname;
      let ts = C.Region.true_subgraphs pdt r in
      let fs = C.Region.false_subgraphs pdt r in
      let show side sgs =
        Printf.printf "%s path: %d SESE subgraph(s):\n" side (List.length sgs);
        List.iter
          (fun sg ->
            Printf.printf "  entry %-12s  %d block(s)\n"
              sg.C.Region.sg_entry.Ssa.bname
              (C.Region.subgraph_size sg))
          sgs
      in
      show "true" ts;
      show "false" fs;
      (* the first pair is the profitable one: the two if-then compare
         and swap subgraphs *)
      let st = List.hd ts and sf = List.hd fs in
      (match C.Isomorphism.match_subgraphs st sf with
      | None -> print_endline "subgraphs not isomorphic?!"
      | Some pairs ->
          Printf.printf
            "\n=== subgraph alignment ===\nisomorphic pair, FP_S = %.3f \
             (0.5 = identical instruction mix)\n"
            (C.Profitability.fp_s A.Latency.default pairs);
          List.iter
            (fun (a, b) ->
              Printf.printf "  %s  <->  %s\n" a.Ssa.bname b.Ssa.bname)
            pairs));

  print_endline "\n=== applying DARM (Algorithm 1) ===";
  let stats = C.Pass.run ~checked:true f in
  Printf.printf
    "iterations: %d, melds: %d, aligned pairs: %d, gap instrs: %d, \
     selects: %d, unpredicated runs: %d\n"
    stats.C.Pass.iterations stats.C.Pass.melds_applied
    stats.C.Pass.meld_stats.C.Meld.melded_pairs
    stats.C.Pass.meld_stats.C.Meld.gap_instrs
    stats.C.Pass.meld_stats.C.Meld.selects_inserted
    stats.C.Pass.meld_stats.C.Meld.unpredicated_runs;

  print_endline "\n=== melded CFG (paper Fig. 5e) ===";
  print_endline (Printer.cfg_summary f);

  print_endline "\n=== performance (paper Fig. 8, BIT) ===";
  let r =
    Darm_harness.Experiment.run K.Bitonic.kernel ~block_size ~n:256
  in
  Printf.printf "block size %d: %.2fx speedup, output %s\n" block_size
    (Darm_harness.Experiment.speedup r)
    (if r.Darm_harness.Experiment.correct then "correct" else "INCORRECT")
