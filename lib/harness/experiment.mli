(** Experiment runner: executes a kernel baseline-vs-transformed on the
    simulator and collects the paper's metrics, with a built-in output
    equivalence check against the host reference.

    The runner memoizes both the baseline simulation of each (kernel,
    block size, seed, n, simulator config) point and the full results
    of the stock transforms, so figures, tables and CSV exports that
    revisit the same point under the same machine model share one
    simulation.  The caches are mutex-protected and safe to hit from
    the {!Parallel_sweep} domain pool. *)

module Kernel = Darm_kernels.Kernel
module Sim = Darm_sim.Simulator
module Metrics = Darm_sim.Metrics
module Pass = Darm_core.Pass

type transform = {
  t_name : string;
  t_apply : ?obs:Darm_obs.Trace.t -> Darm_ir.Ssa.func -> int;
      (** returns #rewrites applied; [obs] receives the pass's spans and
          meld decisions (the melding transforms only) *)
}

val darm_transform : ?config:Pass.config -> unit -> transform

(** The shared default-config DARM transform.  Results produced through
    this instance (and the other stock transforms below) are memoized;
    a fresh [darm_transform ()] behaves identically but bypasses the
    result cache. *)
val darm_default : transform

val branch_fusion_transform : transform
val tail_merge_transform : transform
val identity_transform : transform

(** The stock transform behind a CLI pass name: "darm", "branch-fusion",
    "tail-merge" or "none"; [Error] names the unknown pass. *)
val transform_of_name : string -> (transform, string) result

type result = {
  tag : string;
  block_size : int;
  n : int;  (** problem size the point ran at *)
  seed : int;  (** input seed; with [tag], [block_size] and [n] it
                   names the point exactly, so it can be re-run *)
  transform_name : string;
  rewrites : int;
  base : Metrics.t;
  opt : Metrics.t;
  correct : bool;
      (** transformed output == baseline output == reference, and both
          runs retired a non-zero cycle count *)
  t_ms : float;
      (** milliseconds spent inside the transform on the monotonic
          clock (the pass only — IR construction and simulation
          excluded); the [pass_ms] column of the bench history *)
}

(** Baseline cycles over optimized cycles.  Raises [Invalid_argument]
    if the optimized run retired zero cycles — a zero-cycle run means
    the simulation never executed, and reporting 1.0x for it would
    silently hide the failure. *)
val speedup : result -> float

(** [all_correct rs] — every result passed its equivalence check. *)
val all_correct : result list -> bool

val sim_config : Sim.config

val run_instance : ?config:Sim.config -> Kernel.instance -> Metrics.t

(** Run [kernel] at [block_size] with and without [transform]; [sim]
    overrides the machine model (e.g. the warp width), and [mem_model]
    and [reconvergence] override its memory and reconvergence models.
    The overrides compose — Flat/Hier x Stack/Its are all valid — and
    the resulting config is part of the memo key.

    [obs] instruments the run: the whole experiment is wrapped in an
    [experiment] span carrying kernel/block-size/transform attributes,
    the transform receives the buffer, and both simulations emit their
    divergence timelines into it (baseline on pid 1, transformed on
    pid 2).

    Three things bypass the memoization caches: [obs] (so the events
    are always emitted), a [sim] that carries [obs], and a
    transform other than the four stock ones (which bypasses the
    result cache only). *)
val run :
  ?transform:transform ->
  ?seed:int ->
  ?n:int ->
  ?sim:Sim.config ->
  ?obs:Darm_obs.Trace.t ->
  ?mem_model:Sim.mem_model ->
  ?reconvergence:Sim.reconvergence ->
  Kernel.t ->
  block_size:int ->
  result

(** Sweep a kernel over its block sizes on the domain pool. *)
val sweep :
  ?jobs:int ->
  ?transform:transform ->
  ?seed:int ->
  ?n:int ->
  ?mem_model:Sim.mem_model ->
  ?reconvergence:Sim.reconvergence ->
  Kernel.t ->
  result list

(** Sweep several kernels over their block sizes on the domain pool;
    the flattened results are in kernel-major, block-size-minor order
    for any pool size. *)
val sweep_many :
  ?jobs:int ->
  ?transform:transform ->
  ?seed:int ->
  ?n:int ->
  ?mem_model:Sim.mem_model ->
  ?reconvergence:Sim.reconvergence ->
  Kernel.t list ->
  result list

(** Force independent experiment thunks on the domain pool, preserving
    list order. *)
val run_many : ?jobs:int -> (unit -> result) list -> result list

val geomean : float list -> float
