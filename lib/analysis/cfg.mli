(** CFG traversal utilities shared by the analyses. *)

open Darm_ir

(** Blocks reachable from the entry, in depth-first preorder. *)
val reachable_blocks : Ssa.func -> Ssa.block list

(** Reverse postorder over reachable blocks — the canonical iteration
    order for forward dataflow. *)
val reverse_postorder : Ssa.func -> Ssa.block list

(** Blocks reachable from [src] without entering any block in [stop]
    (the [stop] blocks themselves are not included).  [src] is included
    unless it is in [stop]. *)
val reachable_without : Ssa.block -> stop:Ssa.block list -> Ssa.block list

(** Remove blocks not reachable from the entry; incoming phi entries
    from removed blocks are dropped.  Returns [true] when anything was
    removed. *)
val remove_unreachable : Ssa.func -> bool

(** All blocks ending in [Ret].  No pass calls it; the properties
    suite's "post-dominator invariants" property does. *)
val exit_blocks : Ssa.func -> Ssa.block list
