(* Deterministic profiling pipeline: run a kernel's block-size sweep
   with full observability (pass spans + meld decisions, per-warp
   divergence timelines, experiment spans) and merge the per-task
   buffers in block-size order.  See profile.mli. *)

module Kernel = Darm_kernels.Kernel
module Trace = Darm_obs.Trace
module E = Experiment

let run_point ?seed ?n ?mem_model ?reconvergence ?transform (kernel : Kernel.t)
    ~(block_size : int) : Trace.t * E.result =
  let tr = Trace.create () in
  Trace.instant tr ~cat:"profile"
    ~args:
      [
        ("kernel", Trace.Str kernel.Kernel.tag);
        ("block_size", Trace.Int block_size);
      ]
    "profile.task";
  let r =
    E.run ?transform ?seed ?n ?mem_model ?reconvergence ~obs:tr kernel
      ~block_size
  in
  Trace.instant tr ~cat:"profile"
    ~args:
      [
        ("kernel", Trace.Str r.E.tag);
        ("block_size", Trace.Int r.E.block_size);
        ("transform", Trace.Str r.E.transform_name);
        ("rewrites", Trace.Int r.E.rewrites);
        ("base_cycles", Trace.Int r.E.base.E.Metrics.cycles);
        ("opt_cycles", Trace.Int r.E.opt.E.Metrics.cycles);
        ("speedup", Trace.Float (E.speedup r));
        ("correct", Trace.Bool r.E.correct);
      ]
    "profile.result";
  (tr, r)

(* pid namespace stride between the tasks of a merged sweep trace: each
   task uses pids 0 (pass/harness), 1 (baseline sim), 2 (melded sim) *)
let pid_stride = 1000

let sweep ?jobs ?seed ?n ?mem_model ?reconvergence ?transform
    (kernel : Kernel.t) : Trace.t * E.result list =
  let points =
    Parallel_sweep.map ?jobs
      (fun block_size ->
        run_point ?seed ?n ?mem_model ?reconvergence ?transform kernel
          ~block_size)
      kernel.Kernel.block_sizes
  in
  let traces =
    List.mapi
      (fun i (tr, _) ->
        Trace.shift_pid tr (i * pid_stride);
        tr)
      points
  in
  (Trace.merge traces, List.map snd points)
