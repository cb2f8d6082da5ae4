(** SIMT execution engine with IPDOM-based reconvergence.

    Models the paper's evaluation platform (an AMD Vega-class GPU) at
    the fidelity the evaluation needs: warps of [warp_size] lanes issue
    instructions in lock-step under an active mask; each warp maintains
    a SIMT reconvergence stack (a divergent conditional branch pushes
    one frame per taken arm with the reconvergence point at the branch
    block's immediate post-dominator); every issued instruction costs
    its {!Darm_analysis.Latency} value in cycles per issue, so divergent
    regions pay for both arms serially while melded regions pay once;
    [syncthreads] suspends a warp until all warps of its block arrive.

    Undef values follow LLVM-style poison semantics: pure ALU operations
    on undef produce undef (melded code executes gap instructions
    speculatively and discards the wrong-side results); dereferencing an
    undef pointer, dividing by undef or branching on undef traps.

    The interpreter doubles as the correctness oracle of the test
    suites: a kernel is run before and after a transformation and the
    final memories must be identical. *)

open Darm_ir

(** Parameters of the hierarchical memory model.  The cache line equals
    the 32-cell coalescing segment, so the L1 is indexed by segment
    number; capacity = [l1_sets * l1_ways] lines.  All state resets at
    thread-block boundaries. *)
type hier_params = {
  l1_sets : int;  (** set count (a power of two is not required) *)
  l1_ways : int;  (** associativity, LRU replacement *)
  l1_hit_lat : int;  (** charged when every touched segment is resident *)
  l1_miss_lat : int;
      (** charged when any segment misses; also the slot occupancy time
          of the in-flight (MSHR) tracker *)
  txn_cycles : int;
      (** serialization cost of each coalesced segment beyond the
          first — the latency face of the transaction counter *)
  lds_conflict_cycles : int;
      (** cycles per extra LDS serialization phase (bank conflicts) *)
  mshr : int;
      (** bounded in-flight segment requests; a miss with every slot
          busy stalls issue until the earliest completes *)
}

(** 64 sets x 4 ways, 28/180-cycle hit/miss, 4 cycles per extra
    segment, 2 per LDS conflict phase, 32 MSHR slots. *)
val default_hier_params : hier_params

(** Memory model selector: [Flat] charges every access its static
    {!Darm_analysis.Latency} value — bit-for-bit the original
    behaviour; [Hier] routes global traffic through coalescing, the L1
    and the MSHR tracker and serializes LDS bank conflicts, so the
    charged latency depends on the dynamic access pattern.  Per-site
    attribution ({!Metrics.site_stats}) is collected under both. *)
type mem_model = Flat | Hier of hier_params

(** Parameters of independent thread scheduling. *)
type its_params = {
  its_reconv_wait : bool;
      (** convergence-optimizer barrier: a lane reaching a split's
          reconvergence point (the branch's IPDOM) parks until the
          sibling lanes of that split arrive, restoring maximal
          convergence on structured code (Volta's reconvergence
          optimizer).  Deadlock-free by construction: whenever no lane
          of a warp is runnable, every parked lane is released, so
          siblings stuck at a [syncthreads] or exited via [ret] can
          never wedge the warp.  [false] reconverges purely
          opportunistically. *)
}

(** [{ its_reconv_wait = true }] — the convergence-optimized variant. *)
val default_its_params : its_params

(** Reconvergence model selector: [Stack] is the IPDOM SIMT
    reconvergence stack — bit-for-bit the original behaviour, pinned by
    the golden cycle counts of [test/suite_reconvergence.ml]; [Its] is
    Volta-style independent thread scheduling: every lane carries its
    own PC and run state, the warp scheduler issues for the runnable
    lane group sharing the minimal (pc, instruction) each cycle
    (MinPC), and lanes reconverge opportunistically when their PCs
    coincide.  Under [Its], [syncthreads] is legal in divergent control
    flow (lanes park individually), where [Stack] must reject it.
    Orthogonal to {!mem_model}: all four combinations are valid.

    Divergence attribution is collected identically under both models:
    per-branch lost-lane cycles sum exactly to
    {!Metrics.t.lost_lane_cycles}, and a kernel with no divergent
    branch costs identical cycles under both. *)
type reconvergence = Stack | Its of its_params

(** The one mapping between the models and their names: darm_opt's
    [--mem-model]/[--reconvergence] values and the model fields of
    reports and of the bench history.  Default model first. *)

val mem_models : (string * mem_model) list
val reconvergences : (string * reconvergence) list
val mem_model_name : mem_model -> string
val reconvergence_name : reconvergence -> string

type config = {
  warp_size : int;  (** 64 = an AMD wavefront *)
  latency : Darm_analysis.Latency.config;
  max_cycles_per_warp : int;
      (** runaway-loop guard: issue budget per warp under [Stack],
          per lane under [Its] (so lane interleaving never trips it
          earlier than lock-step execution would) *)
  mem_model : mem_model;  (** default [Flat] *)
  reconvergence : reconvergence;  (** default [Stack] *)
  obs : Darm_obs.Trace.t option;
      (** structured divergence timeline: one [warp.diverge] /
          [warp.reconverge] / [warp.barrier] instant per warp split,
          reconvergence and barrier (active-mask popcounts, hex masks
          and the stable [branch_id] of the splitting branch in the
          attributes) on tid [1 + tid_base], plus
          per-thread-block cycle spans and a [block.cycles] counter on
          tid 0.  Events are timestamped with the deterministic cycle
          counter, so traces are byte-identical across runs.  [None]
          (the default) emits nothing and leaves the simulation
          bit-identical to an uninstrumented run. *)
  obs_pid : int;
      (** pid stamped on this run's [obs] events (default 1), so two
          simulations — e.g. baseline and melded — can share one
          buffer on disjoint tracks *)
}

val default_config : config

exception Sim_error of string

(** The interpreter's integer ALU: uniform two's-complement i32
    semantics via {!Darm_ir.I32} (the same evaluator the constant
    folder uses, so the two can never diverge).  Raises {!Sim_error} on
    division or remainder by zero.  Exposed for the differential
    property tests. *)
val eval_ibin : Op.ibinop -> int -> int -> int

type launch = { grid_dim : int; block_dim : int }

(** Execute the kernel over the whole grid and return the collected
    metrics.  [args] bind the function parameters positionally; the
    function is verified before execution.

    Beyond the aggregate counters, the result carries per-branch
    divergence attribution ({!Metrics.branch_stats}): every conditional
    branch that split a warp is keyed by its static branch id (block
    name) with its split count, the issue cycles spent inside its arms,
    the idle-lane cycles those splits wasted, and its reconvergence
    count.  Attribution is always on — it costs two array increments
    per issue — and deterministic like every other counter.

    Memory behaviour is attributed the same way
    ({!Metrics.site_stats}): every load/store is keyed by its static
    access site ["<block>#<k>"] with issues, global accesses and
    coalesced transactions, and — under [Hier] — L1 hits/misses,
    bank-conflict cycles and MSHR stall cycles.  Under [Hier] with
    [obs] set the timeline additionally carries [mem.inflight] samples
    (per global access) and a cumulative [mem.l1_hit_rate] sample per
    block boundary on tid 0. *)
val run :
  ?config:config ->
  Ssa.func ->
  args:Memory.rv array ->
  global:Memory.t ->
  launch ->
  Metrics.t
