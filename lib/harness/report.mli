(** Per-meld divergence attribution: joins the simulator's per-branch
    divergence counters from a baseline and an optimized run with the
    melding pass's provenance records ({!Darm_core.Pass.meld_record})
    into a cycles-saved-per-meld table — the [darm_opt report]
    pipeline.

    {2 Attribution model}

    Every conditional branch that splits a warp is keyed by its stable
    static branch id (block name), which survives the melding pass for
    unmelded code.  A meld's provenance lists the branch ids it
    subsumed; each branch id is {e claimed} by the first meld (in
    application order) that lists it, so no cycle is counted twice.  A
    meld's [cycles saved] is the drop in divergent-arm issue cycles
    over its claimed branches between the baseline and optimized runs.

    The sum of the per-meld rows does not equal the total cycle delta:
    melded code still executes (once instead of twice), reconvergence
    and unpredicated gap blocks cost cycles, and cleanups shift uniform
    code.  Those effects are collected in an explicit {e residual} row,
    so that [sum(melds) + residual = base_cycles - opt_cycles] holds
    {e exactly} — an accounting identity the test suite checks on every
    registry kernel.  See doc/observability.md for the residual's
    interpretation and typical magnitude. *)

module Kernel = Darm_kernels.Kernel
module Metrics = Darm_sim.Metrics
module Pass = Darm_core.Pass
module Sim = Darm_sim.Simulator

val schema : string
(** ["darm-report-v2"] — the [schema] key of the JSON rendering (see
    doc/schemas.md).  v2 added the memory section ([mem_model],
    [mem_sites], the memory cycle deltas). *)

(** One static branch id joined across the two runs.  [None] means the
    branch never split a warp in that run (melded away, newly created,
    or simply uniform). *)
type branch_join = {
  bj_id : string;
  bj_base : Metrics.branch_stat option;
  bj_opt : Metrics.branch_stat option;
  bj_meld : int option;
      (** [m_index] of the meld that claimed this branch, if any *)
}

(** One applied meld with the divergence counters of its claimed
    branches aggregated from both runs. *)
type meld_row = {
  mr_meld : Pass.meld_record;
  mr_claimed : string list;
      (** subsumed branch ids claimed by this meld (first claim in
          application order wins), sorted *)
  mr_base_divergences : int;
  mr_opt_divergences : int;
  mr_base_cycles : int;  (** divergent-arm issue cycles, baseline *)
  mr_opt_cycles : int;  (** divergent-arm issue cycles, optimized *)
  mr_base_lost : int;  (** idle-lane cycles, baseline *)
  mr_opt_lost : int;  (** idle-lane cycles, optimized *)
}

(** [mr_base_cycles - mr_opt_cycles]: the divergent-arm cycles this
    meld eliminated. *)
val meld_saved : meld_row -> int

(** One static memory access site ("<block>#<k>") joined across the two
    runs.  [None] means the run never issued that load/store (melded
    away, newly created, or dead). *)
type mem_join = {
  mj_id : string;
  mj_base : Metrics.mem_site_stat option;
  mj_opt : Metrics.mem_site_stat option;
}

type t = {
  rp_kernel : string;
  rp_block_size : int;
  rp_seed : int;
  rp_n : int;
  rp_correct : bool;
  rp_rewrites : int;  (** melds applied by the pass *)
  rp_mem_model : string;  (** "flat" or "hier" ({!Sim.mem_model_name}) *)
  rp_reconvergence : string;
      (** "stack" or "its" ({!Sim.reconvergence_name}) *)
  rp_base : Metrics.t;
  rp_opt : Metrics.t;
  rp_melds : meld_row list;  (** in application order *)
  rp_branches : branch_join list;  (** sorted by branch id *)
  rp_mem_sites : mem_join list;  (** sorted by site id *)
}

(** Total cycle delta, [base - opt]; positive = the pass helped. *)
val delta : t -> int

(** [delta t - sum(meld_saved)]: cycles explained by melded-path
    execution, reconvergence overhead and secondary effects rather than
    by any single meld.  [sum(meld_saved) + residual = delta] exactly. *)
val residual : t -> int

(** True when the baseline run never split a warp and no meld was
    applied — the renderers then say so instead of emitting an empty
    table. *)
val no_divergence : t -> bool

(** {2 Memory attribution} — the per-access-site analogue of the
    per-meld table, with its own exact-sum discipline: the per-site
    cycle deltas sum to [mem_delta] by construction (the simulator
    attributes every memory issue to a site), and
    [mem_delta + mem_residual = delta] closes the identity against the
    total. *)

(** Memory issue cycles this site gained or lost, [base - opt]. *)
val mem_site_saved : mem_join -> int

(** Global memory-cycle delta, [base.mem_cycles - opt.mem_cycles]. *)
val mem_delta : t -> int

(** [delta - mem_delta]: the non-memory share of the total cycle
    delta. *)
val mem_residual : t -> int

(** True when neither run issued a load or store. *)
val no_memory : t -> bool

(** Assemble a report from raw pieces (exposed so the tests can build
    synthetic inputs without running kernels).  Claims branches to
    melds, builds the joined branch table and the joined per-site
    memory table.  [mem_model] and [reconvergence] (defaults: those of
    {!Sim.default_config}) only name the models in the report; the
    site counters come from the two metrics records. *)
val build :
  ?mem_model:Sim.mem_model ->
  ?reconvergence:Sim.reconvergence ->
  kernel:string ->
  block_size:int ->
  seed:int ->
  n:int ->
  correct:bool ->
  rewrites:int ->
  base:Metrics.t ->
  opt:Metrics.t ->
  melds:Pass.meld_record list ->
  unit ->
  t

(** Run [kernel] baseline-vs-DARM at [block_size] through
    {!Experiment.run} and assemble the attribution report from the
    result: its meld provenance ({!Experiment.result.pass_stats}) and
    its machine model's names.  Deterministic: identical inputs
    produce identical reports.  [mem_model] selects the simulator's
    memory model for both runs (default [Flat]); [reconvergence] the
    divergence-handling model (default [Stack]) — the two compose
    freely. *)
val compute :
  ?seed:int ->
  ?n:int ->
  ?mem_model:Darm_sim.Simulator.mem_model ->
  ?reconvergence:Darm_sim.Simulator.reconvergence ->
  Kernel.t ->
  block_size:int ->
  t

(** [compute] over several (kernel, block size) points on the domain
    pool; results come back in input order for any [jobs], so rendered
    output is byte-identical across pool sizes. *)
val compute_many :
  ?jobs:int ->
  ?seed:int ->
  ?n:int ->
  ?mem_model:Darm_sim.Simulator.mem_model ->
  ?reconvergence:Darm_sim.Simulator.reconvergence ->
  (Kernel.t * int) list ->
  t list

(** {2 Renderers} — all three are pure functions of the report. *)

val to_text : t -> string
val to_markdown : t -> string

(** Single-report JSON document: [{"schema":"darm-report-v1",...}]. *)
val to_json : t -> Darm_obs.Json.t

(** Multi-report document:
    [{"schema":"darm-report-v1","reports":[...]}]. *)
val many_to_json : t list -> Darm_obs.Json.t

(** Export both runs' counters into a metrics registry, labelled
    [kernel=<tag>], [run=base|opt] (plus the per-branch series of
    {!Metrics.fill_registry}). *)
val fill_metrics : Darm_obs.Metrics_registry.t -> t -> unit
