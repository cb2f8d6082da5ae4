(** Experiment runner: executes a kernel baseline-vs-transformed on the
    simulator and collects the paper's metrics, with a built-in output
    equivalence check against the host reference.

    The runner memoizes both the baseline simulation of each (kernel,
    block size, seed, n, simulator config) point and the full results
    of the {!transforms} table, so figures, tables and CSV exports that
    revisit the same point under the same machine model share one
    simulation.  The caches are mutex-protected and safe to hit from
    the {!Parallel_sweep} domain pool. *)

module Kernel = Darm_kernels.Kernel
module Sim = Darm_sim.Simulator
module Metrics = Darm_sim.Metrics
module Pass = Darm_core.Pass

(** One pipeline step: the melding pass under some configuration, or
    a rewrite that does not meld. *)
type transform = {
  t_name : string;  (** display name, e.g. ["DARM"], ["tail-merging"] *)
  t_apply :
    ?obs:Darm_obs.Trace.t ->
    ?checked:bool ->
    Darm_ir.Ssa.func ->
    int * Pass.stats option;
      (** #rewrites applied, and the pass's stats for a melding step
          ([None] otherwise).  [obs] receives the pass's spans and meld
          decisions; [checked] (default [false]), the conformance
          oracle's mode, runs a melding step as a checked {!Pass.run}:
          the IR is verified and the checkers re-run after every meld,
          and a new checker error raises {!Pass.Validation_failed}. *)
}

(** The melding pass under [config], displayed as [name].  Outside
    {!transforms}, so its results are never memoized. *)
val pass_transform : string -> Pass.config -> transform

val darm_default : transform

(** Every pipeline step by its CLI and oracle-stage name: ["darm"]
    ({!darm_default}), ["darm-nounpred"] (without unpredication),
    ["branch-fusion"], ["tail-merge"], ["none"] (the identity),
    ["cleanups"] (SimplifyCFG, constant folding, DCE: the oracle's
    first stage and Table II's baseline), then compile's single
    rewrites ["simplify"], ["constfold"], ["dce"], ["unroll"] and
    ["if-convert"]. *)
val transforms : (string * transform) list

(** [Error] is the [unknown pass "NAME" (darm|darm-nounpred|...)] line
    every command prints, listing the whole table. *)
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
  pass_stats : Pass.stats option;  (** [None] for steps that don't meld *)
  machine : Sim.config;
      (** the config both runs simulated under, [obs] stripped *)
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
    transform outside {!transforms} (which bypasses the result cache
    only). *)
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
