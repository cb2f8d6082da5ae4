(** Hardware counters collected by the simulator — the rocprof analogues
    used in the paper's evaluation (§VI-C, §VI-D). *)

(** Divergence attribution for one static branch (a conditional branch
    that actually split a warp), keyed by the branch's {e static branch
    id} — the name of the block whose terminator it is.  Block names
    survive the melding pass for unmelded code, so base and optimized
    runs of the same kernel can be joined on this id. *)
type branch_stat = {
  mutable br_divergences : int;
      (** dynamic warp splits at this branch *)
  mutable br_cycles : int;
      (** issue cycles spent inside this branch's divergent arms (the
          innermost divergent branch wins under nesting) *)
  mutable br_lost_lane_cycles : int;
      (** idle-lane cycles: for every issue inside an arm, the lanes of
          the split's parent mask that sit masked off, times the
          instruction latency — the SIMD capacity the split wasted *)
  mutable br_reconvergences : int;
      (** arm completions at the branch's IPDOM (two per full split) *)
}

(** Memory attribution for one static access site, keyed by the site's
    {e static site id}: ["<block>#<k>"] where [<block>] is the name of
    the block containing the load/store and [k] its index among the
    block's non-phi instructions.  Like branch ids, site ids survive
    the melding pass for unmelded code, so base and optimized runs of
    the same kernel join on them.  Collected under every memory model;
    the L1/stall/conflict-cycle fields stay zero under [Flat]. *)
type mem_site_stat = {
  mutable ms_issues : int;
      (** dynamic warp-wide issues of this load/store *)
  mutable ms_accesses : int;
      (** issues that generated global traffic (>= 1 segment); sums to
          {!t.global_accesses} across sites *)
  mutable ms_transactions : int;
      (** 32-cell global segments touched; sums to
          {!t.global_transactions} *)
  mutable ms_l1_hits : int;
      (** hierarchical model: accesses whose every segment hit L1 *)
  mutable ms_l1_misses : int;
      (** hierarchical model: accesses with at least one missing
          segment; [ms_l1_hits + ms_l1_misses = ms_accesses] *)
  mutable ms_bank_conflicts : int;
      (** LDS serialization phases beyond the first; sums to
          {!t.bank_conflicts} *)
  mutable ms_bank_conflict_cycles : int;
      (** hierarchical model: cycles those phases cost *)
  mutable ms_stall_cycles : int;
      (** hierarchical model: issue stalls waiting for a free MSHR *)
  mutable ms_cycles : int;
      (** issue cycles charged at this site (incl. stalls); sums to
          {!t.mem_cycles} *)
}

type t = {
  mutable cycles : int;
      (** total issue cycles across all warps (the performance metric;
          with a fixed number of SIMD units this is proportional to
          runtime) *)
  mutable instructions : int;  (** dynamic instructions issued (per warp) *)
  mutable alu_issues : int;    (** ALU-class instruction issues *)
  mutable alu_active_lanes : int;
      (** sum of active lanes over ALU issues; utilization =
          active / (issues * warp_size) *)
  mutable mem_global : int;  (** vector (global) memory instructions *)
  mutable mem_shared : int;  (** LDS / shared memory instructions *)
  mutable mem_flat : int;    (** flat-addressed memory instructions *)
  (* the eleven totals below are sums of the per-site and per-branch
     records, set by [sum_records] *)
  mutable global_transactions : int;  (** sum of [ms_transactions] *)
  mutable global_accesses : int;  (** sum of [ms_accesses] *)
  mutable bank_conflicts : int;  (** sum of [ms_bank_conflicts] *)
  mutable l1_hits : int;  (** sum of [ms_l1_hits] *)
  mutable l1_misses : int;  (** sum of [ms_l1_misses] *)
  mutable mem_stall_cycles : int;  (** sum of [ms_stall_cycles] *)
  mutable bank_conflict_cycles : int;  (** sum of [ms_bank_conflict_cycles] *)
  mutable mem_cycles : int;  (** sum of [ms_cycles] *)
  mutable divergent_branches : int;  (** sum of [br_divergences] *)
  mutable lost_lane_cycles : int;  (** sum of [br_lost_lane_cycles] *)
  mutable reconvergences : int;  (** sum of [br_reconvergences] *)
  mutable barriers : int;
  mutable block_cycles : int list;
      (** issue cycles of each thread block, most recently executed
          first — input to the multi-CU makespan estimate *)
  branches : (string, branch_stat) Hashtbl.t;
      (** per-branch divergence attribution; read through
          {!branch_stats} for deterministic ordering *)
  mem_sites : (string, mem_site_stat) Hashtbl.t;
      (** per-access-site memory attribution; read through
          {!site_stats} for deterministic ordering *)
}

let create () =
  {
    cycles = 0;
    instructions = 0;
    alu_issues = 0;
    alu_active_lanes = 0;
    mem_global = 0;
    mem_shared = 0;
    mem_flat = 0;
    global_transactions = 0;
    global_accesses = 0;
    bank_conflicts = 0;
    l1_hits = 0;
    l1_misses = 0;
    mem_stall_cycles = 0;
    bank_conflict_cycles = 0;
    mem_cycles = 0;
    divergent_branches = 0;
    lost_lane_cycles = 0;
    reconvergences = 0;
    barriers = 0;
    block_cycles = [];
    branches = Hashtbl.create 8;
    mem_sites = Hashtbl.create 8;
  }

(* sorted by branch id: the deterministic-snapshot contract *)
let branch_stats (m : t) : (string * branch_stat) list =
  Hashtbl.fold (fun id s acc -> (id, s) :: acc) m.branches []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* sorted by site id: the deterministic-snapshot contract *)
let site_stats (m : t) : (string * mem_site_stat) list =
  Hashtbl.fold (fun id s acc -> (id, s) :: acc) m.mem_sites []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The one writer of the eleven totals: each is the sum of one field of
   the per-branch or per-site records, so the records partition it. *)
let sum_records (m : t) : unit =
  let br f = Hashtbl.fold (fun _ s n -> n + f s) m.branches 0 in
  let ms f = Hashtbl.fold (fun _ s n -> n + f s) m.mem_sites 0 in
  m.divergent_branches <- br (fun s -> s.br_divergences);
  m.lost_lane_cycles <- br (fun s -> s.br_lost_lane_cycles);
  m.reconvergences <- br (fun s -> s.br_reconvergences);
  m.mem_cycles <- ms (fun s -> s.ms_cycles);
  m.global_transactions <- ms (fun s -> s.ms_transactions);
  m.global_accesses <- ms (fun s -> s.ms_accesses);
  m.bank_conflicts <- ms (fun s -> s.ms_bank_conflicts);
  m.l1_hits <- ms (fun s -> s.ms_l1_hits);
  m.l1_misses <- ms (fun s -> s.ms_l1_misses);
  m.mem_stall_cycles <- ms (fun s -> s.ms_stall_cycles);
  m.bank_conflict_cycles <- ms (fun s -> s.ms_bank_conflict_cycles)

(** Coalescing efficiency of one site: ideal transactions (one per
    access) over actual; 1.0 is perfectly coalesced within a 32-lane
    phase, lower is scatter.  0 when the site saw no global traffic. *)
let site_coalescing (s : mem_site_stat) : float =
  if s.ms_transactions = 0 then 0.
  else float_of_int s.ms_accesses /. float_of_int s.ms_transactions

(** L1 hit rate over global accesses; 0 when no access was classified
    (e.g. under the flat model). *)
let l1_hit_rate (m : t) : float =
  let n = m.l1_hits + m.l1_misses in
  if n = 0 then 0. else float_of_int m.l1_hits /. float_of_int n

let alu_utilization (m : t) ~(warp_size : int) : float =
  if m.alu_issues = 0 then 0.
  else
    float_of_int m.alu_active_lanes
    /. float_of_int (m.alu_issues * warp_size)
    *. 100.

(** Estimated wall-clock cycles when [num_cus] compute units execute the
    thread blocks in parallel: a longest-processing-time greedy schedule
    over the per-block cycle counts (order-insensitive: the schedule
    sorts them).  With one CU this equals [cycles]; with more CUs than
    blocks it is the longest block; with no recorded blocks it is 0. *)
let makespan (m : t) ~(num_cus : int) : int =
  if num_cus <= 1 then m.cycles
  else begin
    let blocks =
      List.sort (fun a b -> compare b a) m.block_cycles
    in
    let cus = Array.make num_cus 0 in
    List.iter
      (fun c ->
        (* place on the least-loaded CU *)
        let best = ref 0 in
        Array.iteri (fun k load -> if load < cus.(!best) then best := k) cus;
        cus.(!best) <- cus.(!best) + c)
      blocks;
    Array.fold_left max 0 cus
  end

(** Average transactions per global/flat memory instruction: 1.0-2.0 is
    fully coalesced on a 64-wide warp, higher means scatter. *)
let transactions_per_access (m : t) : float =
  if m.global_accesses = 0 then 0.
  else float_of_int m.global_transactions /. float_of_int m.global_accesses

(* Export one run's counters into a {!Darm_obs.Metrics_registry}:
   whole-run totals plus the per-branch attribution series, every
   series stamped with the caller's base labels (kernel, run, ...).
   The per-block cycle counts feed a histogram so the exposition
   carries the block-imbalance shape, not just the sum. *)
let fill_registry (reg : Darm_obs.Metrics_registry.t)
    ?(labels : (string * string) list = []) (m : t) ~(warp_size : int) : unit =
  let module R = Darm_obs.Metrics_registry in
  let inc name v = R.inc reg ~labels ~by:(float_of_int v) name in
  inc "sim_cycles_total" m.cycles;
  inc "sim_instructions_total" m.instructions;
  inc "sim_divergent_branches_total" m.divergent_branches;
  inc "sim_lost_lane_cycles_total" m.lost_lane_cycles;
  inc "sim_reconvergences_total" m.reconvergences;
  inc "sim_barriers_total" m.barriers;
  inc "sim_mem_global_total" m.mem_global;
  inc "sim_mem_shared_total" m.mem_shared;
  inc "sim_mem_flat_total" m.mem_flat;
  inc "sim_bank_conflicts_total" m.bank_conflicts;
  inc "sim_global_transactions_total" m.global_transactions;
  inc "sim_global_accesses_total" m.global_accesses;
  inc "sim_l1_hits_total" m.l1_hits;
  inc "sim_l1_misses_total" m.l1_misses;
  inc "sim_mem_stall_cycles_total" m.mem_stall_cycles;
  inc "sim_bank_conflict_cycles_total" m.bank_conflict_cycles;
  inc "sim_mem_cycles_total" m.mem_cycles;
  R.set reg ~labels "sim_alu_utilization_percent"
    (alu_utilization m ~warp_size);
  if m.l1_hits + m.l1_misses > 0 then
    R.set reg ~labels "sim_l1_hit_rate" (l1_hit_rate m);
  List.iter
    (fun c -> R.observe reg ~labels "sim_block_cycles" (float_of_int c))
    m.block_cycles;
  List.iter
    (fun (id, s) ->
      let labels = labels @ [ ("branch", id) ] in
      let inc name v = R.inc reg ~labels ~by:(float_of_int v) name in
      inc "sim_branch_divergences_total" s.br_divergences;
      inc "sim_branch_divergent_cycles_total" s.br_cycles;
      inc "sim_branch_lost_lane_cycles_total" s.br_lost_lane_cycles;
      inc "sim_branch_reconvergences_total" s.br_reconvergences)
    (branch_stats m);
  List.iter
    (fun (id, s) ->
      let labels = labels @ [ ("site", id) ] in
      let inc name v = R.inc reg ~labels ~by:(float_of_int v) name in
      inc "sim_site_issues_total" s.ms_issues;
      inc "sim_site_accesses_total" s.ms_accesses;
      inc "sim_site_transactions_total" s.ms_transactions;
      inc "sim_site_l1_hits_total" s.ms_l1_hits;
      inc "sim_site_l1_misses_total" s.ms_l1_misses;
      inc "sim_site_bank_conflicts_total" s.ms_bank_conflicts;
      inc "sim_site_bank_conflict_cycles_total" s.ms_bank_conflict_cycles;
      inc "sim_site_stall_cycles_total" s.ms_stall_cycles;
      inc "sim_site_cycles_total" s.ms_cycles)
    (site_stats m)

let to_string (m : t) ~(warp_size : int) : string =
  Printf.sprintf
    "cycles=%d instrs=%d alu_util=%.1f%% mem[global=%d shared=%d flat=%d] \
     txn/access=%.2f div_branches=%d barriers=%d%s"
    m.cycles m.instructions
    (alu_utilization m ~warp_size)
    m.mem_global m.mem_shared m.mem_flat
    (transactions_per_access m)
    m.divergent_branches m.barriers
    (* hierarchical-model counters, appended only when the run
       classified accesses so flat-model output stays byte-identical *)
    (if m.l1_hits + m.l1_misses = 0 then ""
     else
       Printf.sprintf " l1_hit=%.1f%% mem_stall=%d bank_conflict_cyc=%d"
         (100. *. l1_hit_rate m)
         m.mem_stall_cycles m.bank_conflict_cycles)
