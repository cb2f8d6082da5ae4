(** Meldable divergent regions and their SESE subgraph decomposition
    (paper §IV-A/§IV-B, Definitions 1–5).

    A {e divergent region} is the smallest region enclosing a divergent
    branch: its entry [E] is the block with the branch, its exit [X] is
    [E]'s immediate post-dominator.  The region is {e meldable} when
    neither successor of [E] post-dominates the other (Definition 5),
    so both paths contain at least one SESE subgraph.

    Each path decomposes into an ordered sequence of SESE subgraphs: the
    {e cut points} of a path are the blocks that post-dominate the
    path's first block; the subgraph between two consecutive cut points
    is either a single basic block or a simple region (Definition 3).
    The sequence order coincides with the post-dominance order used for
    subgraph alignment (Definition 7). *)

open Darm_ir
module Domtree = Darm_analysis.Domtree
module Divergence = Darm_analysis.Divergence

type subgraph = {
  sg_entry : Ssa.block;
  sg_blocks : (int, Ssa.block) Hashtbl.t;
      (** includes entry and exit_src *)
  sg_exit_src : Ssa.block;
      (** unique block carrying the exit edge (after
          {!Simplify_region}); before simplification an arbitrary
          representative *)
  sg_exit_dest : Ssa.block;
      (** the next cut point (not part of the subgraph) *)
}

type t = {
  r_entry : Ssa.block;  (** E — ends in the divergent conditional branch *)
  r_cond : Ssa.value;   (** the branch condition C *)
  r_exit : Ssa.block;   (** X = ipdom(E) *)
  r_t_succ : Ssa.block;
  r_f_succ : Ssa.block;
  r_t_side : Ssa.block list;
      (** blocks reachable from the true successor without passing
          through X *)
  r_f_side : Ssa.block list;
}

val in_subgraph : subgraph -> Ssa.block -> bool
val subgraph_block_list : subgraph -> Ssa.block list
val subgraph_size : subgraph -> int

(** [detect dvg dt pdt b] checks whether [b] is the entry of a
    meldable divergent region (Definition 5) and returns it.  Beyond the
    branch conditions, every block of both paths must be dominated by
    [b] and post-dominated by the exit — the defining property of a
    region — which rules out pseudo-regions whose reachability sets leak
    through loop back edges into unrelated control flow. *)
val detect :
  Divergence.t -> Domtree.t -> Domtree.t -> Ssa.block -> t option

(** Ordered SESE subgraph sequences of the two paths; earlier subgraphs
    execute first. *)
val true_subgraphs : Domtree.t -> t -> subgraph list

val false_subgraphs : Domtree.t -> t -> subgraph list
