(** Instruction-level alignment: the match predicate and the FP_I
    scoring function of the paper (§IV-C), applied through
    Needleman–Wunsch.

    Two instructions match under the criteria of Rocha et al. (Function
    Merging, PLDI'20): identical opcode, identical operand count,
    compatible operand and result types.  FP_I(I1, I2) = lat(I1) - N_s *
    l_sel when the instructions match (N_s = number of selects needed
    for diverging operands), undefined (no alignment allowed) when they
    do not.  A gap run costs two
    branches regardless of its length, hence the affine gap with zero
    extension cost in {!align_blocks}. *)

open Darm_ir

(** Optimal alignment of the body instructions (no phis, no terminator)
    of two basic blocks. *)
val align_blocks :
  Darm_analysis.Latency.config ->
  Ssa.block ->
  Ssa.block ->
  (Ssa.instr, Ssa.instr) Sequence.aligned list
