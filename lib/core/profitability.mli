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
    forever). *)

open Darm_ir
module Latency = Darm_analysis.Latency

(** w_i per class present in the block. *)
val class_weight : Latency.config -> Ssa.block -> (string, int) Hashtbl.t

(** Block-pair melding profitability, in [0, 0.5]. *)
val fp_b : Latency.config -> Ssa.block -> Ssa.block -> float

(** Subgraph-pair melding profitability over an isomorphic block
    correspondence. *)
val fp_s : Latency.config -> (Ssa.block * Ssa.block) list -> float
