(** Barrier-divergence checker.

    A [Syncthreads] must be reached by {e all} threads of a block or by
    none: on real GPUs a barrier executed under a divergent branch
    deadlocks or desynchronizes the block (CUDA calls this undefined
    behaviour), and in our SIMT simulator a warp parked at a barrier
    that its siblings never reach hangs the launch.

    The analysis is a forward dataflow of {e open divergent branches}: a
    block ending in a divergent conditional branch (per
    {!Darm_analysis.Divergence}) opens itself; the open entry closes at
    the entry of the branch block's immediate post-dominator — the
    reconvergence point, where every thread is guaranteed present
    again.  A branch whose immediate post-dominator is the virtual exit
    never closes, which is exactly the conservative answer: there is no
    real block where its threads provably rejoin.  Loops with
    thread-dependent trip counts keep their header's branch open
    throughout the body, so barriers inside such loops (temporal
    divergence) are flagged too.

    Every [Syncthreads] whose block has a non-empty open set yields an
    [Error] diagnostic with id [barrier-divergence]. *)

open Darm_ir

type t

(** [dvg] / [pdt] (when supplied) must be current for [f]; they save
    recomputing the divergence analysis and the post-dominator tree —
    e.g. from a {!Darm_analysis.Manager}. *)
val analyze :
  ?dvg:Darm_analysis.Divergence.t ->
  ?pdt:Darm_analysis.Domtree.t ->
  Ssa.func ->
  t

val diags : t -> Diag.t list

(** Divergent-branch blocks still open at the entry of [b] (after
    reconvergence closing), as block names; used by {!Race_check} to
    tell which accesses execute under divergence.  Empty for blocks
    unreachable from the entry. *)
val open_in : t -> Ssa.block -> Ssa.block list

(** The [id] of this checker's diagnostics; suite_checks' barrier cases
    and "race: negative kernels" match on it. *)
val id_barrier_divergence : string
