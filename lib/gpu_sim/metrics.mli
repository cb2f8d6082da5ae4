(** Hardware counters collected by the simulator — the rocprof analogues
    used in the paper's evaluation (§VI-C, §VI-D) — plus per-branch
    divergence attribution. *)

(** Divergence attribution for one static branch, keyed by its {e static
    branch id}: the name, unique in the kernel, of the block whose
    terminator is the conditional branch.  Block names survive melding
    for unmelded code, so base and optimized runs join on this id (the
    [darm_opt report] pipeline). *)
type branch_stat = {
  mutable br_divergences : int;
      (** dynamic warp splits at this branch *)
  mutable br_cycles : int;
      (** issue cycles spent inside this branch's divergent arms; under
          nested divergence the innermost branch wins *)
  mutable br_lost_lane_cycles : int;
      (** idle-lane cycles: lanes of the split's parent mask that sit
          masked off during an arm, times instruction latency *)
  mutable br_reconvergences : int;
      (** arm completions at the branch's IPDOM (two per full split) *)
}

(** Memory attribution for one static access site, keyed by its
    {e static site id}: ["<block>#<k>"] ([Darm_ir.Ssa.site_id]) —
    block name plus index among the block's non-phis.  Site ids survive
    melding for unmelded code, so base and optimized runs join on them
    (the memory section of [darm_opt report]).  Always collected; the
    L1/stall/conflict-cycle fields stay zero under the flat model. *)
type mem_site_stat = {
  mutable ms_issues : int;
      (** dynamic warp-wide issues of this load/store *)
  mutable ms_accesses : int;
      (** issues generating global traffic; sums to
          {!t.global_accesses} across sites *)
  mutable ms_transactions : int;
      (** 32-cell global segments touched; sums to
          {!t.global_transactions} *)
  mutable ms_l1_hits : int;
      (** accesses whose every segment hit L1 (hierarchical model) *)
  mutable ms_l1_misses : int;
      (** accesses with >= 1 segment miss;
          [ms_l1_hits + ms_l1_misses = ms_accesses] under [Hier] *)
  mutable ms_bank_conflicts : int;
      (** LDS serialization phases beyond the first *)
  mutable ms_bank_conflict_cycles : int;
      (** cycles those phases cost (hierarchical model) *)
  mutable ms_stall_cycles : int;
      (** MSHR-full issue stalls (hierarchical model) *)
  mutable ms_cycles : int;
      (** issue cycles charged at this site, incl. stalls; sums to
          {!t.mem_cycles} *)
}

type t = {
  mutable cycles : int;
      (** total issue cycles across all warps: the performance metric *)
  mutable instructions : int;
  mutable alu_issues : int;
  mutable alu_active_lanes : int;
  mutable mem_global : int;  (** vector (global) memory instructions *)
  mutable mem_shared : int;  (** LDS / shared memory instructions *)
  mutable mem_flat : int;    (** flat-addressed memory instructions *)
  (* The eleven totals below are the per-site and per-branch records'
     sums, set once per run by {!sum_records}: each names the record
     field it sums, so the records partition it exactly. *)
  mutable global_transactions : int;
      (** 32-cell global segments touched: the sum of [ms_transactions] *)
  mutable global_accesses : int;
      (** issues generating global traffic: the sum of [ms_accesses] *)
  mutable bank_conflicts : int;
      (** extra LDS serialization phases: the sum of [ms_bank_conflicts] *)
  mutable l1_hits : int;
      (** global accesses fully served by L1: the sum of [ms_l1_hits];
          0 under the flat model *)
  mutable l1_misses : int;
      (** global accesses with >= 1 segment miss: the sum of
          [ms_l1_misses]; [l1_hits + l1_misses = global_accesses] under
          [Hier] *)
  mutable mem_stall_cycles : int;
      (** cycles stalled waiting for a free MSHR slot: the sum of
          [ms_stall_cycles] *)
  mutable bank_conflict_cycles : int;
      (** cycles charged for LDS serialization (hierarchical model): the
          sum of [ms_bank_conflict_cycles] *)
  mutable mem_cycles : int;
      (** issue cycles charged at memory instructions, incl. stalls: the
          sum of [ms_cycles] *)
  mutable divergent_branches : int;
      (** dynamic warp splits: the sum of [br_divergences] *)
  mutable lost_lane_cycles : int;
      (** idle-lane cycles: the sum of [br_lost_lane_cycles], under the
          SIMT stack and under independent thread scheduling alike *)
  mutable reconvergences : int;
      (** arm completions at an IPDOM: the sum of [br_reconvergences] *)
  mutable barriers : int;
  mutable block_cycles : int list;
      (** issue cycles of each thread block, most recently executed
          first *)
  branches : (string, branch_stat) Hashtbl.t;
      (** per-branch divergence attribution; iterate through
          {!branch_stats} for deterministic ordering *)
  mem_sites : (string, mem_site_stat) Hashtbl.t;
      (** per-access-site memory attribution; iterate through
          {!site_stats} for deterministic ordering *)
}

val create : unit -> t

(** Per-branch attribution sorted by branch id — the deterministic
    snapshot the report generator and the tests consume. *)
val branch_stats : t -> (string * branch_stat) list

(** Per-site memory attribution sorted by site id — the deterministic
    snapshot the report generator and the tests consume. *)
val site_stats : t -> (string * mem_site_stat) list

(** Set the eleven totals from the records in [branches] and
    [mem_sites]: each total becomes the sum of the record field its
    comment names.  {!Simulator.run} calls it once, after the launch. *)
val sum_records : t -> unit

(** Coalescing efficiency of one site: accesses over transactions; 1.0
    is perfectly coalesced, lower is scatter, 0 without global
    traffic. *)
val site_coalescing : mem_site_stat -> float

(** L1 hit rate over classified global accesses; 0 when none (e.g.
    under the flat model). *)
val l1_hit_rate : t -> float

(** Percentage of SIMD lanes active over all ALU issues; 0 when no ALU
    instruction was issued. *)
val alu_utilization : t -> warp_size:int -> float

(** Estimated wall-clock cycles when [num_cus] compute units execute the
    thread blocks in parallel (LPT greedy schedule over the per-block
    cycle counts; insensitive to the [block_cycles] ordering).  Equals
    [cycles] for one CU; the longest single block when there are more
    CUs than blocks; 0 when no blocks were recorded. *)
val makespan : t -> num_cus:int -> int

(** Average transactions per global memory instruction: low is
    coalesced, up to one per lane when scattered; 0 when no global
    access was issued.  [to_string] prints it as [txn/access]; exported
    for suite_metrics' "txn/access" cases and suite_sim's coalescing
    case. *)
val transactions_per_access : t -> float

(** Export the run into a {!Darm_obs.Metrics_registry}: whole-run
    totals ([sim_cycles_total], ..., incl. the memory-hierarchy
    [sim_l1_hits_total] / [sim_l1_misses_total] /
    [sim_mem_stall_cycles_total] / [sim_bank_conflict_cycles_total] /
    [sim_mem_cycles_total] counters and a [sim_l1_hit_rate] gauge when
    any access was classified), an [sim_alu_utilization_percent] gauge,
    a [sim_block_cycles] histogram, the four [sim_branch_*_total]
    counter families labelled with each branch id, and the nine
    [sim_site_*_total] families labelled with each access site — all
    additionally stamped with the caller's [labels] (kernel, run,
    ...). *)
val fill_registry :
  Darm_obs.Metrics_registry.t ->
  ?labels:(string * string) list ->
  t ->
  warp_size:int ->
  unit

val to_string : t -> warp_size:int -> string
