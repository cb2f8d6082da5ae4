(** Melding profitability heuristics FP_B and FP_S (paper §IV-C).

    FP_B(b1, b2) approximates the fraction of thread cycles saved by
    melding two basic blocks, assuming every instruction class common to
    both blocks melds:

    FP_B = (Σ_i min(freq(i,b1), freq(i,b2)) · w_i) / (lat(b1) + lat(b2))

    Two blocks with identical opcode-frequency profiles score 0.5 — the
    best case, where the pair executes in the cycles of one block.  FP_S
    lifts FP_B to isomorphic subgraphs as the latency-weighted average
    over corresponding block pairs.

    The class set Q is the plain opcode (as in the paper): a shared and
    a global load are the same class, meldable into one flat access;
    their weight w_i is the cheaper of the two latencies.  Phis and
    terminators are excluded — phis occupy no issue slot, and counting
    terminators would make a pair of empty blocks look 0.5-profitable
    (the pass would then meld its own freshly created exit blocks
    forever).

    The candidate search reads subgraph {!summary} values: one per
    subgraph (its walk's shape and one class profile per block, à la
    Lim et al.'s per-subgraph feature vectors), from which {!score}
    gives a pair's FP_S and {!may_profit} the similarity prefilter. *)

open Darm_ir
module Latency = Darm_analysis.Latency

(** Block-pair melding profitability, in [0, 0.5].  The pass reads it
    only through {!fp_s}; the melding suite's "fp_b identical profile"
    and "fp_b disjoint profile" cases and the properties suite's FP_B
    bounds property call it directly. *)
val fp_b : Latency.config -> Ssa.block -> Ssa.block -> float

(** Subgraph-pair melding profitability over an isomorphic block
    correspondence. *)
val fp_s : Latency.config -> (Ssa.block * Ssa.block) list -> float

(** What the candidate search keeps of one subgraph: its
    {!Isomorphism.walk}, when it has one, with the class profile of
    each block in the walk's preorder and their totals. *)
type summary

val summarize : Latency.config -> Region.subgraph -> summary

(** [score a b] is [Some (fp_s lat pairs)] when
    [Isomorphism.match_subgraphs] pairs the two subgraphs (their walks'
    shapes are equal) and [None] when it does not; every bit of the
    score is the one {!fp_s} computes. *)
val score : summary -> summary -> float option

(** [may_profit ~threshold a b]: can the pair meld?  [false] proves the
    exhaustive search would skip it: the shapes differ, or an upper
    bound on the pair's {!score} is at most [threshold] (melding needs
    FP_S above it).  The bound is, per class, the smaller total
    frequency times the smaller largest per-block weight, summed over
    the total latency (0 when that is 0, as for {!fp_s}), widened by
    the rounding {!fp_s}'s weighted average can add; so for an
    isomorphic pair [may_profit ~threshold:(Float.pred fp) a b] holds,
    where [fp] is its score. *)
val may_profit : threshold:float -> summary -> summary -> bool
