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

(** Raised by a [checked] {!run} when a meld adds a checker error; the
    message names the region and the function and lists the new
    diagnostics. *)
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
  if_convert_after : bool;
      (** re-run the predicating if-conversion after the pass, modelling
          the later -O3 pipeline (the paper's §VI-C observation) *)
  obs : Darm_obs.Trace.t option;
      (** trace buffer for the pass-pipeline instrumentation: a
          [pass.run] span wrapping one [pass.iteration] span per
          Algorithm 1 iteration, each broken down into [pass.analysis]
          (analysis cache queries), [pass.candidates] (region detection +
          pair search), [pass.apply] (normalization + melding) and
          [pass.cleanup] child spans; a [meld.decision] instant per
          scored subgraph pair (region entry, pair entries, FP_S,
          threshold, accept/reject — prefiltered pairs emit none) and
          a [meld.apply] instant for each meld actually performed.
          A [checked] run adds a [meld.validation_failed] instant
          before it raises.  [None] (the default) emits nothing and
          adds no measurable overhead. *)
  prefilter : bool;
      (** similarity prefilter in front of the candidate search
          (default [true]): subgraph pairs whose
          {!Profitability.summary} values prove the exhaustive search
          would reject them are skipped before they are scored
          ({!Profitability.may_profit}).  Either their
          {!Isomorphism.walk} shapes differ, so they are not
          isomorphic, or an upper bound on their computed FP_S is at
          most [threshold].  The filter
          is {e exact} — the chosen melds are identical with it on or
          off — but skipped pairs emit no [meld.decision] trace
          instant.  {!run} obeys this field alone. *)
}

(** [prefilter] is [false] when the [DARM_NO_PREFILTER] environment
    variable holds a non-empty value other than ["0"] at program start,
    which forces the exhaustive search wherever the default config
    runs; [true] otherwise. *)
val default_config : config

(** [default_config] restricted to single-block diamonds — branch fusion
    (Coutinho et al.), the Table I baseline. *)
val branch_fusion_config : config

(** One line naming every field of [config] that decides the printed
    IR ([obs] and [prefilter] do not).  The batch
    result cache keys on it, so a config change starts a fresh key
    space; the default config prints
    [darm|pairing=greedy|threshold=0.1|...|lat=1,4,16,...].  Its
    iteration-cap, cleanup and validation entries are fixed text (64,
    on, none), kept so that stored keys stay valid. *)
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
          (captured {e before} normalization adds blocks), sorted and
          deduplicated *)
}

type stats = {
  mutable iterations : int;
  mutable regions_found : int;
      (** region searches: divergent branches {!Region.detect} found a
          meldable region at, whose subgraph pairs were then searched *)
  mutable regions_reused : int;
      (** divergent-branch lookups served from memory: an earlier
          search in the same run found no candidate in the branch's
          region, the branch is still divergent with the same immediate
          post-dominator, and neither it nor a block of the region's
          sides has left the function or been stamped
          ({!Darm_ir.Ssa.block}'s [edit_stamp]) since that search.  Such
          a lookup skips {!Region.detect} and the pair search: it counts
          in neither [regions_found] nor [pairs_scored] and emits no
          [meld.decision] event.  Every meld decision is unchanged *)
  mutable melds_applied : int;
  mutable pairs_scored : int;
      (** subgraph pairs that went through isomorphism matching + FP_S
          scoring: each pair of a search once, under either pairing.
          With the prefilter on, each is isomorphic and emits one
          [meld.decision] instant *)
  mutable candidates_prefiltered : int;
      (** pair evaluations skipped by the similarity prefilter *)
  mutable analysis_recomputes_avoided : int;
      (** analysis queries of this run that the function's analysis
          cache served ({!Darm_analysis.Manager.recomputes_avoided},
          taken over the run) — each one a recompute avoided *)
  mutable melds : meld_record list;
      (** provenance of the applied melds, in application order, so
          [List.length melds = melds_applied] *)
  meld_stats : Meld.stats;
}

(** Run the melding pass to a fixpoint (at most 64 iterations, each
    meld followed by SimplifyCFG and DCE); returns the statistics.
    [checked] (default [false]), the conformance oracle's mode, is
    translation validation: after every meld the {!Darm_checks}
    checkers re-run, verifying the function first (IR the verifier
    rejects raises {!Darm_ir.Verify.Invalid_ir}), and an error the
    pre-meld report lacks ({!Darm_checks.Checker.new_errors}) raises
    {!Validation_failed}.  Each post-meld report is the next meld's
    pre-meld one, so the checkers, and the verifier with them, run
    once per meld plus once before the first. *)
val run : ?config:config -> ?checked:bool -> Ssa.func -> stats

(** Export the run counters into a metrics registry as the
    [darm_pass_*] families ([iterations], [melds_applied],
    [pairs_scored], [candidates_prefiltered],
    [analysis_recomputes_avoided], [regions_reused] — all [_total]
    counters; see
    doc/observability.md).  [labels] (e.g. [("kernel", tag)]) are
    attached to every sample. *)
val fill_metrics :
  Darm_obs.Metrics_registry.t ->
  ?labels:(string * string) list ->
  stats ->
  unit
