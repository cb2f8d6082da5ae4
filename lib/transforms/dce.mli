(** Dead-code elimination: removes instructions without side effects
    whose results are unused, and then, off a worklist over each
    removed instruction's operands, those the removal left unused.
    Returns [true] when it removed anything. *)

val run : Darm_ir.Ssa.func -> bool
