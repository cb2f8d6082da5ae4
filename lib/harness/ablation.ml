(** Ablation studies for the design choices called out in DESIGN.md:

    - unpredication on/off (paper §IV-E);
    - melding-profitability threshold sweep (the [threshold] of
      Algorithm 1);
    - select-latency sensitivity of the FP_I scoring;
    - re-predication by later passes (if-conversion after melding,
      the §VI-C bitonic effect).

    Each study computes its experiment points on the {!Parallel_sweep}
    domain pool and prints afterwards, and returns the results it
    consumed so {!run} can gate the harness exit code on them. *)

module Kernel = Darm_kernels.Kernel
module Pass = Darm_core.Pass
module Latency = Darm_analysis.Latency
module E = Experiment

let pf = Printf.printf

let run_with (config : Pass.config) (kernel : Kernel.t) ~block_size :
    E.result =
  E.run ~transform:(E.pass_transform "DARM" config) kernel ~block_size

let unpredication_ablation ?jobs () : E.result list =
  let kernels =
    [ Darm_kernels.Sb.sb1_r; Darm_kernels.Sb.sb3_r; Darm_kernels.Bitonic.kernel ]
  in
  let rows =
    E.run_many ?jobs
      (List.concat_map
         (fun (kernel : Kernel.t) ->
           let block_size = List.hd kernel.Kernel.block_sizes in
           [
             (fun () ->
               run_with { Pass.default_config with unpredicate = true } kernel
                 ~block_size);
             (fun () ->
               run_with { Pass.default_config with unpredicate = false } kernel
                 ~block_size);
           ])
         kernels)
  in
  pf "\n-- ablation: unpredication on/off --\n";
  pf "%-8s %14s %14s\n" "bench" "unpred=on" "unpred=off";
  List.iteri
    (fun i (kernel : Kernel.t) ->
      let on = List.nth rows (2 * i) and off = List.nth rows ((2 * i) + 1) in
      pf "%-8s %13.2fx %13.2fx%s\n" kernel.Kernel.tag (E.speedup on)
        (E.speedup off)
        (if on.E.correct && off.E.correct then "" else "  (INCORRECT)"))
    kernels;
  rows

let threshold_ablation ?jobs () : E.result list =
  let kernel = Darm_kernels.Sb.sb3 in
  let thresholds = [ 0.05; 0.1; 0.2; 0.3; 0.45; 0.6 ] in
  let rows =
    E.run_many ?jobs
      (List.map
         (fun threshold () ->
           run_with { Pass.default_config with threshold } kernel
             ~block_size:64)
         thresholds)
  in
  pf "\n-- ablation: melding profitability threshold --\n";
  pf "%-12s %10s %10s\n" "threshold" "melds" "speedup";
  List.iter2
    (fun threshold r ->
      pf "%-12.2f %10d %9.2fx\n" threshold r.E.rewrites (E.speedup r))
    thresholds rows;
  rows

let select_latency_ablation ?jobs () : E.result list =
  let kernel = Darm_kernels.Sb.sb1_r in
  let selects = [ 0; 1; 4; 16 ] in
  let rows =
    E.run_many ?jobs
      (List.map
         (fun select () ->
           let config =
             {
               Pass.default_config with
               latency = { Latency.default with select };
             }
           in
           run_with config kernel ~block_size:64)
         selects)
  in
  pf "\n-- ablation: select latency in FP_I --\n";
  pf "%-12s %10s %10s\n" "l_sel" "melds" "speedup";
  List.iter2
    (fun select r ->
      pf "%-12d %10d %9.2fx\n" select r.E.rewrites (E.speedup r))
    selects rows;
  rows

let pairing_ablation ?jobs () : E.result list =
  let kernels =
    [
      Darm_kernels.Sb.sb3;
      Darm_kernels.Sb.sb3_r;
      Darm_kernels.Bitonic.kernel;
      Darm_kernels.Pcm.kernel;
    ]
  in
  let rows =
    E.run_many ?jobs
      (List.concat_map
         (fun (kernel : Kernel.t) ->
           let block_size = List.hd kernel.Kernel.block_sizes in
           [
             (fun () -> run_with Pass.default_config kernel ~block_size);
             (fun () ->
               run_with
                 { Pass.default_config with pairing = Pass.Alignment }
                 kernel ~block_size);
           ])
         kernels)
  in
  pf "\n-- ablation: greedy vs alignment subgraph pairing --\n";
  pf "%-8s %14s %14s\n" "bench" "greedy" "alignment";
  List.iteri
    (fun i (kernel : Kernel.t) ->
      let g = List.nth rows (2 * i) and a = List.nth rows ((2 * i) + 1) in
      pf "%-8s %13.2fx %13.2fx%s\n" kernel.Kernel.tag (E.speedup g)
        (E.speedup a)
        (if g.E.correct && a.E.correct then "" else "  (INCORRECT)"))
    kernels;
  rows

let repredication_ablation ?jobs () : E.result list =
  let kernel = Darm_kernels.Bitonic.kernel in
  let block_size = 128 in
  let rows =
    E.run_many ?jobs
      [
        (fun () -> run_with Pass.default_config kernel ~block_size);
        (fun () ->
          run_with { Pass.default_config with if_convert_after = true } kernel
            ~block_size);
      ]
  in
  let plain = List.nth rows 0 and repred = List.nth rows 1 in
  pf "\n-- ablation: re-predication by later passes (paper SVI-C) --\n";
  pf "DARM:                %5.2fx\n" (E.speedup plain);
  pf "DARM + if-convert:   %5.2fx%s\n" (E.speedup repred)
    (if repred.E.correct then "" else "  (INCORRECT)");
  rows

let memory_latency_ablation ?jobs () : E.result list =
  let shared_latencies =
    [ Latency.default.Latency.shared_mem; 8; 1 ]
  in
  let rows =
    E.run_many ?jobs
      (List.map
         (fun shared_mem () ->
           let sim =
             {
               Darm_sim.Simulator.default_config with
               latency = { Latency.default with shared_mem };
             }
           in
           E.run ~sim Darm_kernels.Sb.sb1 ~block_size:64)
         shared_latencies)
  in
  pf "\n-- ablation: why melding shared memory wins (paper SVI-D) --\n";
  pf "SB1's melded region is shared-memory-heavy; if LDS were as cheap\n";
  pf "as the ALU, melding would save far less:\n";
  pf "%-26s %10s\n" "latency model" "speedup";
  List.iter2
    (fun label r -> pf "%-26s %9.2fx\n" label (E.speedup r))
    [ "LDS = default (24 cycles)"; "LDS = 8 cycles"; "LDS = 1 cycle (ALU-cheap)" ]
    rows;
  rows

let multi_cu_ablation ?jobs () : E.result list =
  let kernels =
    [ Darm_kernels.Sb.sb1; Darm_kernels.Bitonic.kernel; Darm_kernels.Pcm.kernel ]
  in
  let rows =
    E.run_many ?jobs
      (List.map
         (fun (kernel : Kernel.t) () ->
           E.run kernel ~block_size:(List.hd kernel.Kernel.block_sizes))
         kernels)
  in
  pf "\n-- ablation: does the speedup survive multi-CU scheduling? --\n";
  pf "%-8s %10s %10s %10s\n" "bench" "1 CU" "8 CUs" "64 CUs";
  List.iter2
    (fun (kernel : Kernel.t) r ->
      let speed cus =
        float_of_int (Darm_sim.Metrics.makespan r.E.base ~num_cus:cus)
        /. float_of_int (Darm_sim.Metrics.makespan r.E.opt ~num_cus:cus)
      in
      pf "%-8s %9.2fx %9.2fx %9.2fx\n" kernel.Kernel.tag (speed 1) (speed 8)
        (speed 64))
    kernels rows;
  rows

let warp_size_ablation ?jobs () : E.result list =
  let block_sizes = [ 16; 32; 64; 128; 256 ] in
  let rows =
    E.run_many ?jobs
      (List.concat_map
         (fun block_size ->
           List.map
             (fun warp_size () ->
               let sim =
                 { Darm_sim.Simulator.default_config with warp_size }
               in
               E.run ~sim Darm_kernels.Lud.kernel ~block_size)
             [ 32; 64 ])
         block_sizes)
  in
  pf "\n-- ablation: warp width (wave32 vs wave64) --\n";
  pf "LUD's branch splits the block in half, so it is dynamically\n";
  pf "divergent only when half the block is narrower than the warp:\n";
  pf "%-10s %12s %12s\n" "block size" "wave32" "wave64";
  List.iteri
    (fun i block_size ->
      let w32 = List.nth rows (2 * i) and w64 = List.nth rows ((2 * i) + 1) in
      pf "%-10d %11.2fx %11.2fx\n" block_size (E.speedup w32) (E.speedup w64))
    block_sizes;
  rows

(** Run every ablation; [true] = every underlying experiment passed its
    equivalence check. *)
let run ?jobs () : bool =
  pf "\n== Ablation studies ==\n";
  let all =
    List.concat
      [
        unpredication_ablation ?jobs ();
        threshold_ablation ?jobs ();
        pairing_ablation ?jobs ();
        select_latency_ablation ?jobs ();
        warp_size_ablation ?jobs ();
        memory_latency_ablation ?jobs ();
        multi_cu_ablation ?jobs ();
        repredication_ablation ?jobs ();
      ]
  in
  E.all_correct all
