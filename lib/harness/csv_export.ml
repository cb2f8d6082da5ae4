(** CSV export of the evaluation data, one file per figure/table —
    the artifact-style output format, convenient for external plotting. *)

module Kernel = Darm_kernels.Kernel
module Registry = Darm_kernels.Registry
module Metrics = Darm_sim.Metrics
module E = Experiment

(* binary so the cmp-based byte-identity guarantee holds on any
   platform, atomic so a crashed export never leaves a torn figure *)
let write_file (path : string) (header : string) (rows : string list) : unit =
  let b = Buffer.create 4096 in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  List.iter
    (fun r ->
      Buffer.add_string b r;
      Buffer.add_char b '\n')
    rows;
  Darm_obs.Fsio.write_atomic ~path (Buffer.contents b)

let result_row (r : E.result) : string =
  let warp_size = r.E.machine.Darm_sim.Simulator.warp_size in
  Printf.sprintf "%s,%d,%s,%d,%d,%d,%.4f,%.2f,%.2f,%d,%d,%d,%d,%d,%d,%d"
    r.E.tag r.E.block_size r.E.transform_name r.E.rewrites
    r.E.base.Metrics.cycles r.E.opt.Metrics.cycles (E.speedup r)
    (Metrics.alu_utilization r.E.base ~warp_size)
    (Metrics.alu_utilization r.E.opt ~warp_size)
    r.E.base.Metrics.mem_global r.E.opt.Metrics.mem_global
    r.E.base.Metrics.mem_shared r.E.opt.Metrics.mem_shared
    r.E.base.Metrics.mem_flat r.E.opt.Metrics.mem_flat
    (if r.E.correct then 1 else 0)

let header =
  "bench,block_size,transform,rewrites,base_cycles,opt_cycles,speedup,\
   base_alu_util,opt_alu_util,base_mem_global,opt_mem_global,\
   base_mem_shared,opt_mem_shared,base_mem_flat,opt_mem_flat,correct"

(** Run the full evaluation and write [fig7.csv] (synthetic sweep) and
    [fig8.csv] (real-world sweep) — these two carry all the per-metric
    columns from which Figures 7-10 derive — into [dir].  The sweeps
    fan out over the {!Parallel_sweep} domain pool; the emitted bytes
    are identical for any [jobs]. *)
let export ?n ?jobs ~(dir : string) () : unit =
  Darm_obs.Fsio.mkdir_p dir;
  let rows kernels =
    List.map result_row (E.sweep_many ?jobs ?n kernels)
  in
  write_file (Filename.concat dir "fig7.csv") header
    (rows Registry.synthetic);
  write_file (Filename.concat dir "fig8.csv") header
    (rows Registry.real_world);
  Printf.printf "wrote %s and %s\n"
    (Filename.concat dir "fig7.csv")
    (Filename.concat dir "fig8.csv")
