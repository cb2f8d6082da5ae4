(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table I, Table II, Figures 7-10) on the SIMT simulator,
   and appends one record per run to BENCH_history.jsonl.

   Experiment points fan out over a domain pool sized by DARM_JOBS
   (default: the core count); the printed figures are byte-identical
   for any pool size.  The process exits non-zero if any experiment
   fails its output-equivalence check.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig7 table2  # a subset
     dune exec bench/main.exe -- --smoke      # CI smoke pass
*)

module H = Darm_harness
module Registry = Darm_kernels.Registry
module Kernel = Darm_kernels.Kernel

(* correctness gate: every figure reports whether its experiments
   passed the built-in output-equivalence check, and one failure must
   fail the whole run *)
let all_ok = ref true

let gate (ok : bool) = if not ok then all_ok := false

(* per-kernel experiment points accumulated for BENCH_history.jsonl —
   the machine-readable perf trajectory *)
let bench_results : H.Experiment.result list ref = ref []

let collect (rs : H.Experiment.result list) =
  bench_results := !bench_results @ rs

(* 1000+-block generated stress kernel (fuzz CFG depth 5, seed 8):
   exercises the analysis manager and the similarity prefilter at a
   scale no registry kernel reaches.  Deliberately NOT in the registry,
   so sweeps never pick it up; the cross-model re-runs below resolve it
   by tag.  Generated kernels have no host reference;
   the oracle is differential — the baseline simulation's own output —
   so the gate still catches a miscompiling meld. *)
let stress_seed = 8

let stress_kernel : Kernel.t =
  let gen_cfg =
    { Darm_fuzz.Gen.default_cfg with Darm_fuzz.Gen.max_depth = 5 }
  in
  let make ~seed ~block_size ~n:_ =
    let inst = Darm_fuzz.Gen.instance ~cfg:gen_cfg ~seed ~block_size () in
    { inst with Kernel.reference = inst.Kernel.read_result }
  in
  {
    Kernel.name = "generated large-CFG stress kernel";
    tag = "STRESS1K";
    description =
      "fuzz-generated kernel with >1000 basic blocks; differential \
       output oracle";
    default_n = 128;
    block_sizes = [ 64 ];
    make;
  }

let run_stress () =
  print_newline ();
  print_endline "== STRESS1K: 1000+-block generated kernel, full meld pass ==";
  let r =
    H.Experiment.run ~seed:stress_seed stress_kernel ~block_size:64
  in
  Printf.printf "STRESS1K: pass_ms=%.1f speedup=%.3fx correct=%b\n"
    r.H.Experiment.t_ms (H.Experiment.speedup r) r.H.Experiment.correct;
  collect [ r ];
  gate (H.Experiment.all_correct [ r ])

let run_figures which =
  let want name = which = [] || List.mem name which in
  if want "table1" then gate (H.Figures.table1 ());
  if want "fig7" then begin
    let rs = H.Figures.fig7 () in
    collect rs;
    gate (H.Experiment.all_correct rs)
  end;
  if want "fig8" then begin
    let rs = H.Figures.fig8 () in
    collect rs;
    gate (H.Experiment.all_correct rs)
  end;
  if want "fig9" then
    gate (H.Experiment.all_correct (snd (H.Figures.fig9 ())));
  if want "fig10" then
    gate (H.Experiment.all_correct (snd (H.Figures.fig10 ())));
  if want "table2" then H.Figures.table2 ();
  if want "stress" then run_stress ();
  if want "ablation" then gate (H.Ablation.run ());
  if List.mem "csv" which then H.Csv_export.export ~dir:"bench_csv" ()

let () =
  (* durations read the monotonic clock; record timestamps stay on
     wall-clock time *)
  let t_start = Darm_obs.Clock.now_s () in
  let args = List.tl (Array.to_list Sys.argv) in
  Printf.printf
    "DARM evaluation harness (simulated AMD-style GPU, warp size %d)\n"
    Darm_sim.Simulator.default_config.Darm_sim.Simulator.warp_size;
  Printf.printf "domain pool: %d job(s) (override with DARM_JOBS)\n"
    (H.Parallel_sweep.default_jobs ());
  if List.mem "--smoke" args || List.mem "smoke" args then begin
    let ok, rs = H.Figures.smoke () in
    collect rs;
    gate ok;
    (* the stress kernel is part of the smoke gate: a full meld pass
       over 1000+ blocks must stay inside the CI budget *)
    run_stress ()
  end
  else run_figures args;
  (* machine-readable record: appended whenever any experiment points
     were collected (full run, fig7/fig8, --smoke) *)
  if !bench_results <> [] then begin
    print_newline ();
    (* re-run exactly the points that produced [bench_results] — the
       same (kernel, block size, n, seed), one re-run per result — under
       the other models, so every model's geomean covers the same
       workloads.  All trajectories land in ONE history record (entries
       keyed apart by mem_model and reconvergence), so bench-diff gates
       them together. *)
    let kernel_of tag =
      if tag = stress_kernel.Kernel.tag then stress_kernel
      else
        match Registry.find tag with
        | Some k -> k
        | None -> failwith ("bench: no kernel for collected point " ^ tag)
    in
    let rerun ?mem_model ?reconvergence () =
      List.map
        (fun (r : H.Experiment.result) () ->
          H.Experiment.run ?mem_model ?reconvergence ~n:r.H.Experiment.n
            ~seed:r.H.Experiment.seed (kernel_of r.H.Experiment.tag)
            ~block_size:r.H.Experiment.block_size)
        !bench_results
    in
    (* both re-runs go to the pool as one batch, so their slowest
       points (STRESS1K's meld pass) overlap *)
    let reruns =
      H.Experiment.run_many
        (rerun
           ~mem_model:
             (Darm_sim.Simulator.Hier Darm_sim.Simulator.default_hier_params)
           ()
        @ rerun
            ~reconvergence:
              (Darm_sim.Simulator.Its Darm_sim.Simulator.default_its_params)
            ())
    in
    let npoints = List.length !bench_results in
    let hier_results = List.filteri (fun i _ -> i < npoints) reruns in
    let its_results = List.filteri (fun i _ -> i >= npoints) reruns in
    gate (H.Experiment.all_correct hier_results);
    Printf.printf "bench: hier model re-run (%d points, geomean %.3fx)\n"
      (List.length hier_results)
      (H.Experiment.geomean (List.map H.Experiment.speedup hier_results));
    (* the headline cross-model comparison: how much of DARM's benefit
       survives when the hardware does not force IPDOM reconvergence *)
    gate (H.Experiment.all_correct its_results);
    Printf.printf
      "bench: its model re-run (%d points, geomean %.3fx; stack %.3fx)\n"
      (List.length its_results)
      (H.Experiment.geomean (List.map H.Experiment.speedup its_results))
      (H.Experiment.geomean (List.map H.Experiment.speedup !bench_results));
    let wall_s = Darm_obs.Clock.now_s () -. t_start in
    H.History.append
      (H.History.of_results ~wall_s ~time:(Unix.time ())
         (!bench_results @ reruns));
    Printf.printf "bench: appended run to %s\n" H.History.default_path
  end;
  if not !all_ok then begin
    prerr_endline "bench: correctness failures detected";
    exit 1
  end
