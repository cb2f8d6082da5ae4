(** The DARM melding pass driver (paper Algorithm 1).

    Repeatedly: find a meldable divergent region, decompose both paths
    into SESE subgraph sequences, pick the most profitable isomorphic
    subgraph pair (greedily or through sequence alignment), meld it,
    clean up, recompute the control-flow analyses — until no profitable
    meld remains. *)

open Darm_ir
module Latency = Darm_analysis.Latency

(** How the subgraph pair to meld is chosen (paper §IV-C): [Greedy] is
    the paper's implementation (m × n profitability comparison);
    [Alignment] computes an optimal order-preserving Needleman–Wunsch
    alignment of the two subgraph sequences (Definition 7) and picks the
    most profitable aligned pair. *)
type pairing = Greedy | Alignment

(** Translation validation of each meld: after a candidate is melded
    (and cleaned up), the {!Darm_checks} sanity checkers re-run and the
    report is diffed against the pre-meld one with
    {!Darm_checks.Checker.new_errors}. *)
type validation =
  | Vnone  (** no validation (default) *)
  | Vfail  (** raise {!Validation_failed} on any new error diagnostic *)
  | Vreject
      (** roll back the offending meld from a snapshot, skip that
          candidate for the rest of the run, and keep going;
          rejections are counted in [stats.melds_rejected] *)

exception Validation_failed of string

type config = {
  latency : Latency.config;
  pairing : pairing;
  threshold : float;
      (** minimum FP_S to meld; the paper uses a small positive cutoff *)
  unpredicate : bool;
      (** move {e all} gap runs out of line (§IV-E);
          unsafe-to-speculate runs always move *)
  diamonds_only : bool;  (** branch-fusion compatibility mode *)
  max_iterations : int;
  run_cleanups : bool;  (** SimplifyCFG + DCE after each meld *)
  if_convert_after : bool;
      (** re-run the predicating if-conversion after the pass, modelling
          the later -O3 pipeline (the paper's §VI-C observation) *)
  obs : Darm_obs.Trace.t option;
      (** trace buffer for the pass-pipeline instrumentation: a
          [pass.run] span wrapping one [pass.iteration] span per
          Algorithm 1 iteration, each broken down into [pass.analysis]
          (manager queries), [pass.candidates] (region detection +
          pair search), [pass.apply] (normalization + melding) and
          [pass.cleanup] child spans; a [meld.decision] instant per
          scored subgraph pair (region entry, pair entries, FP_S,
          threshold, accept/reject — prefiltered pairs emit none) and
          a [meld.apply] instant for each meld actually performed.
          Translation validation adds a [meld.validation_failed]
          instant per offending meld.  [None] (the default) emits
          nothing and adds no measurable overhead. *)
  validate : validation;
      (** translation validation mode (see doc/static-analysis.md) *)
  prefilter : bool;
      (** similarity prefilter in front of the candidate search
          (default [true]): subgraph pairs whose
          {!Darm_analysis.Similarity} signatures prove the exhaustive
          search would reject them (CFG-shape mismatch, or FP_S upper
          bound at most [threshold]) are skipped before isomorphism
          matching.  The filter is {e exact} — the chosen melds are
          identical with it on or off — but skipped pairs emit no
          [meld.decision] trace instant.  ANDed with the
          [DARM_NO_PREFILTER] environment variable (set to a non-empty
          value other than ["0"] to force the exhaustive search). *)
}

val default_config : config

(** [default_config] restricted to single-block diamonds — branch fusion
    (Coutinho et al.), the Table I baseline. *)
val branch_fusion_config : config

(** One line naming every field of [config] that decides the printed
    IR ([obs] and [prefilter] do not).  The batch
    result cache keys on it, so a config change starts a fresh key
    space; the default config prints
    [darm|pairing=greedy|threshold=0.1|...|lat=1,4,16,...]. *)
val signature : config -> string

(** Provenance of one applied meld — the join key between the pass and
    the simulator's per-branch divergence attribution: [darm_opt
    report] matches the [m_branches] ids against
    {!Darm_sim.Metrics.branch_stats} of the baseline run to attribute
    cycles saved to individual melds. *)
type meld_record = {
  m_index : int;  (** 1-based application order within the run *)
  m_region : string;
      (** region entry block name — the stable static branch id of the
          divergent branch this meld targets *)
  m_st : string;  (** melded true-path subgraph entry block name *)
  m_sf : string;  (** melded false-path subgraph entry block name *)
  m_fp_s : float;  (** the FP_S profitability score that won *)
  m_branches : string list;
      (** static branch ids subsumed by this meld: the region entry plus
          every conditional branch inside the two melded subgraphs
          (captured {e before} normalization renames blocks), sorted and
          deduplicated *)
}

type stats = {
  mutable iterations : int;
  mutable regions_found : int;
  mutable melds_applied : int;
  mutable melds_rejected : int;
      (** melds rolled back by [Vreject] translation validation *)
  mutable pairs_scored : int;
      (** subgraph pairs that went through full isomorphism matching +
          FP_S scoring (in [Alignment] mode a pair may be scored in
          both the alignment and the selection phase) *)
  mutable candidates_prefiltered : int;
      (** pair evaluations skipped by the similarity prefilter *)
  mutable analysis_recomputes_avoided : int;
      (** analysis queries served from the manager cache — each one is
          a recompute the unmanaged driver would have performed *)
  mutable melds : meld_record list;
      (** provenance of the applied melds, in application order;
          [Vreject]ed melds are removed, so
          [List.length melds = melds_applied] *)
  meld_stats : Meld.stats;
}

val empty_stats : unit -> stats

(** {2 Snapshot / restore}

    Used by [Vreject] validation to roll back a meld; exposed because
    the test suites exercise the round-trip directly. *)

(** Printed-IR snapshot of the function body. *)
val snapshot_func : Ssa.func -> string

(** Graft the re-parsed snapshot back onto [f] (in place).  Raises
    [Invalid_argument] if the snapshot no longer parses. *)
val restore_func : Ssa.func -> string -> unit

(** Run the melding pass to a fixpoint; returns the statistics.  The
    function is verified after every meld when [verify_each] is set (the
    test suites use this). *)
val run : ?config:config -> ?verify_each:bool -> Ssa.func -> stats

(** Export the run counters into a metrics registry as the
    [darm_pass_*] families ([iterations], [melds_applied],
    [melds_rejected], [pairs_scored], [candidates_prefiltered],
    [analysis_recomputes_avoided] — all [_total] counters; see
    doc/observability.md).  [labels] (e.g. [("kernel", tag)]) are
    attached to every sample. *)
val fill_metrics :
  Darm_obs.Metrics_registry.t ->
  ?labels:(string * string) list ->
  stats ->
  unit
