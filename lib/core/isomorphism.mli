(** Structural matching of SESE subgraphs (paper Definition 6).

    Two subgraphs are meldable when they are isomorphic as rooted,
    edge-ordered CFGs: a simultaneous traversal from the two entries
    must match terminator kinds and successor positions (the true/false
    arms of conditional branches correspond pairwise), and edges leaving
    the subgraphs must leave simultaneously.  The single-block case
    (Definition 6 case 3) falls out as isomorphism of one-node graphs;
    the mixed region-vs-block case (case 2) is rejected, as in the
    paper's implementation.

    The traversal is one walk per subgraph ({!walk}): two subgraphs are
    isomorphic exactly when their walks have equal shapes. *)

open Darm_ir

(** One subgraph's canonical walk, a DFS from the entry in successor
    order.  [shape] encodes, per block on its first visit, its
    terminator kind and, per successor, whether it is new, a
    back-reference to the preorder index of an earlier block, or the
    exit; [preorder] lists the blocks in first-visit order. *)
type walk = { shape : string; preorder : Ssa.block list }

(** [walk sg] is [None] when [sg] is isomorphic to no subgraph: a block
    ends in something other than a [br] with one target or a [condbr]
    with two, an edge leaves [sg] for a block other than its exit, or
    the walk misses a block. *)
val walk : Region.subgraph -> walk option

(** [match_subgraphs s1 s2] returns the block correspondence in
    pre-order (entry first, dominating blocks before dominated ones —
    the linearization order required by Algorithm 2): the two walks'
    preorders, paired, when both walks exist and their shapes are
    equal; [None] when the subgraphs are not isomorphic. *)
val match_subgraphs :
  Region.subgraph -> Region.subgraph -> (Ssa.block * Ssa.block) list option
