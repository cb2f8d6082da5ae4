(** Dominator and post-dominator trees.

    Implementation: {!Darm_ir.Dom}, the Cooper–Harvey–Kennedy iterative
    algorithm ("A Simple, Fast Dominance Algorithm") shared with the IR
    verifier.  Post-dominators are computed on the reversed CFG with a
    virtual exit node joining every [Ret] block, so functions with
    multiple exits are handled uniformly.  Dominance queries are O(1)
    via preorder interval numbering of the tree.

    For a tree built with {!compute_post}, every "dominates" below reads
    "post-dominates". *)

open Darm_ir

type t

val compute : Ssa.func -> t
val compute_post : Ssa.func -> t

(** Immediate (post-)dominator of a block; [None] for the root, for
    blocks whose immediate post-dominator is the virtual exit, and for
    unreachable blocks. *)
val idom : t -> Ssa.block -> Ssa.block option

(** [dominates t a b]: does [a] (post-)dominate [b]?  Reflexive;
    [false] when either block is unreachable. *)
val dominates : t -> Ssa.block -> Ssa.block -> bool

val strictly_dominates : t -> Ssa.block -> Ssa.block -> bool

(** Structural equality of two trees over the same function: same node
    set and same immediate-dominator relation. *)
val equal : t -> t -> bool

(** Instruction-level dominance: does the definition [def] dominate a
    use at instruction [use]?  Same-block positions are resolved by
    instruction order. *)
val instr_dominates : t -> Ssa.instr -> Ssa.instr -> bool
