(** Dominator and post-dominator trees: the one dominator
    implementation, shared by {!Verify} and [Darm_analysis.Domtree].

    Nodes are the blocks reachable from the entry, in depth-first
    preorder.  Immediate dominators come from the Cooper–Harvey–Kennedy
    iterative algorithm ("A Simple, Fast Dominance Algorithm") over a
    reverse postorder; a preorder interval numbering of the tree then
    answers each dominance query in O(1).  Post-dominators are the same
    computation on the reversed CFG, rooted at a virtual exit node
    joining every [Ret] block, so functions with multiple exits are
    handled uniformly. *)

type t = private {
  index_of : (int, int) Hashtbl.t;  (** block id -> node index *)
  node_block : Ssa.block option array;
      (** node index -> block; [None] = the virtual exit *)
  idom : int array;
      (** node -> immediate (post-)dominator; the root (the entry, or
          the virtual exit) maps to itself, nodes it does not reach to
          [-1] *)
  tin : int array;  (** preorder interval entry *)
  tout : int array;  (** preorder interval exit *)
  is_post : bool;
}

(** [compute ~is_post f]; predecessors come from {!Ssa.preds}. *)
val compute : is_post:bool -> Ssa.func -> t

(** [tree ~is_post f]: [compute ~is_post f], served from [f]'s analysis
    cache ({!Ssa.cached}, kinds ["domtree"] and ["postdomtree"]) while
    [f] is unedited. *)
val tree : is_post:bool -> Ssa.func -> t

(** [dominates t a b]: does [a] (post-)dominate [b]?  Reflexive; [false]
    when either block is not a node the root reaches. *)
val dominates : t -> Ssa.block -> Ssa.block -> bool
