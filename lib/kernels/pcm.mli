(** Partition and Concurrent Merge: odd/even thread pairs merge adjacent
    sorted buckets in shared memory with forward/backward merge loops —
    parity-divergent isomorphic loop subgraphs with nested
    data-dependent branches (the paper's most complex control flow). *)

val build : block_size:int -> Darm_ir.Ssa.func
val kernel : Kernel.t
