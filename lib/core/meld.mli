(** Subgraph melding code generation (paper §IV-D/§IV-E, Algorithm 2).

    Given two isomorphic, normalized SESE subgraphs of a meldable
    divergent region with branch condition [C], produces one melded
    subgraph executed by both paths: block pairs are processed in
    pre-order; within each pair the body instructions are aligned with
    Needleman–Wunsch under FP_I; aligned pairs are cloned once with
    [select C] disambiguating differing operands; phis are copied from
    both sides; one-sided outside definitions are routed through entry
    phis with [undef] on the opposite edge (paper Fig. 4); the melded
    exit ends in [condbr C, B_T', B_F'] so exit phis can distinguish
    paths; and {e unpredication} moves runs of gap instructions into
    guarded blocks (always for unsafe-to-speculate runs, and for all
    runs when requested). *)

open Darm_ir
module Latency = Darm_analysis.Latency

type stats = {
  mutable melded_pairs : int;     (** I-I pairs collapsed into one *)
  mutable gap_instrs : int;       (** I-G instructions cloned *)
  mutable selects_inserted : int;
  mutable entry_phis : int;       (** Fig. 4 pre-processing phis *)
  mutable unpredicated_runs : int;
}

val empty_stats : unit -> stats

(** The main melding procedure on [fn].  [pairs] is the isomorphism
    correspondence in pre-order; the subgraphs must be normalized
    ({!Simplify_region}) with unique external predecessors [pre_t] /
    [pre_f].  Both dominator trees come from [fn]'s analysis cache
    ({!Darm_analysis.Manager}): the normalized function's, read before
    the first edit, and the melded one's for the dominance repair.
    Returns the melded entry block. *)
val run :
  Ssa.func ->
  cond:Ssa.value ->
  lat:Latency.config ->
  s_t:Region.subgraph ->
  s_f:Region.subgraph ->
  pre_t:Ssa.block ->
  pre_f:Ssa.block ->
  pairs:(Ssa.block * Ssa.block) list ->
  unpredicate:bool ->
  stats:stats ->
  Ssa.block
