(** Tail merging (cross-jumping) — the restrictive baseline of Table I.

    When two predecessors of a block end in identical instruction
    suffixes, the common suffix is hoisted into a fresh shared block and
    both predecessors jump there.  Unlike melding this requires exactly
    equal instructions (same opcodes and operands, up to references into
    the suffix itself).  On the IPDOM execution model the payoff is
    earlier reconvergence: the merged tail becomes the new immediate
    post-dominator of the divergent branch. *)

open Darm_ir

(** Merge to a fixpoint; returns the number of merges applied. *)
val run : Ssa.func -> int
