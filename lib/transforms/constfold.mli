(** Constant folding of individual instructions (arithmetic on literals,
    algebraic identities, select simplification). *)

open Darm_ir

(** Try to fold one instruction to a constant value.  {!run} applies
    it; the transforms suite's constfold cases and the i32 suite's
    constfold properties call it on one instruction. *)
val fold_instr : Ssa.instr -> Ssa.value option

(** Fold everything foldable to a fixpoint; returns [true] if anything
    changed.  Folded instructions become dead and are left for
    {!Dce}. *)
val run : Ssa.func -> bool
