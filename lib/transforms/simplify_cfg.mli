(** CFG clean-up in the spirit of LLVM's SimplifyCFG: the melding pass
    relies on it (and on its own post-optimizations, paper §IV-F) to
    tidy up after subgraph melding.

    Rewrites, iterated to a fixpoint: unreachable-block removal, folding
    of constant and identical-destination conditional branches, trivial
    phi removal, merging a block into its unique predecessor, and
    removal of empty forwarding blocks (when no phi conflict arises). *)

open Darm_ir

(** Run all clean-ups to a fixpoint; [true] if the function changed. *)
val run : Ssa.func -> bool

(** Cost-bounded if-conversion of triangles and diamonds whose side
    blocks contain only speculatable instructions: sides fold into the
    branch block and join phis become selects.  Models the
    re-predication by later LLVM passes that the paper observes on
    bitonic sort (§VI-C). *)
val if_convert : ?max_cost:int -> Ssa.func -> bool
