(** Deterministic profiling pipeline behind [darm_opt profile] (and the
    [--trace-out] flags of [simulate]/[sweep]).

    A profiled point runs one (kernel, block size) experiment with full
    observability: the pass driver emits its iteration spans and
    meld-decision events, both simulations emit their per-warp
    divergence timelines, and the harness wraps everything in an
    experiment span.  {!sweep} fans the kernel's block sizes over the
    {!Parallel_sweep} domain pool with one private buffer per task and
    merges the buffers in block-size order, shifting each task into its
    own pid namespace ({!pid_stride}) — so the merged trace is
    byte-identical for any [jobs] count, matching the harness-wide
    determinism guarantee. *)

module Kernel = Darm_kernels.Kernel
module Trace = Darm_obs.Trace
module E = Experiment

(** Profile a single (kernel, block size) point into a fresh buffer.
    [transform] (default {!E.darm_default}) receives the buffer through
    {!E.run}'s [obs]: the melding transforms record their pass spans
    and meld decisions there, while tail merging and the identity
    record none.  [mem_model] selects the simulator's memory model
    (default [Flat]); [reconvergence] the divergence-handling model
    (default [Stack]). *)
val run_point :
  ?seed:int ->
  ?n:int ->
  ?mem_model:Darm_sim.Simulator.mem_model ->
  ?reconvergence:Darm_sim.Simulator.reconvergence ->
  ?transform:E.transform ->
  Kernel.t ->
  block_size:int ->
  Trace.t * E.result

(** pid distance between consecutive block-size tasks in a merged sweep
    trace (each task occupies pids 0..2 of its namespace). *)
val pid_stride : int

(** Profile the kernel's whole block-size sweep; the merged trace and
    the per-block-size results, both in block-size order regardless of
    the pool size. *)
val sweep :
  ?jobs:int ->
  ?seed:int ->
  ?n:int ->
  ?mem_model:Darm_sim.Simulator.mem_model ->
  ?reconvergence:Darm_sim.Simulator.reconvergence ->
  ?transform:E.transform ->
  Kernel.t ->
  Trace.t * E.result list
