(** Region simplification (paper Definition 4): rewrite a SESE subgraph
    so that it has a single, dedicated, unconditional exit edge and a
    unique external predecessor — the paper's conversion of regions into
    simple regions with fresh entry/exit blocks, which makes the melding
    code generation uniform.  Every edit goes through {!Darm_ir.Ssa}'s
    mutators, so an analysis manager for the function drops what it
    cached. *)

open Darm_ir

(** Insert a fresh block [q] between the edges [srcs -> dest]: every
    source is redirected to [q] and [q] branches to [dest].  Phi nodes
    in [dest] are split: the entries for [srcs] move into a new phi in
    [q].  Returns [q].  The pass reaches it only through the two
    normalizations below; the regions suite's "split_edges merges phis"
    and "split single edge" cases call it on hand-built CFGs. *)
val split_edges :
  Ssa.func -> srcs:Ssa.block list -> dest:Ssa.block -> name:string -> Ssa.block

(** Normalize the exit: afterwards [sg_exit_src] is a dedicated block
    holding only [br sg_exit_dest].  Always inserts the fresh block so
    that both subgraphs of a melding pair stay isomorphic. *)
val normalize_exit :
  Ssa.func -> Region.subgraph -> Region.subgraph

(** Unique external predecessor of the subgraph entry; splits the edge
    when the entry has several external predecessors or a single one
    arriving via a conditional branch (the region entry E). *)
val normalize_entry :
  Ssa.func -> Region.subgraph -> Region.subgraph * Ssa.block
