(** Per-function analysis manager: caches the CFG walk, dominator and
    post-dominator trees and divergence behind a typed query API.

    A cached analysis is served while the function's edit count
    ([Ssa.func]'s [edit_count]) is unchanged.  Every mutator in
    {!Darm_ir.Ssa} bumps that count, and nothing else writes a field the
    analyses read, so a query after any edit recomputes: a stale result
    cannot be served.

    The post-dominator tree is shared with a cached divergence result
    in both directions: it is served from one (divergence computes one
    internally), and divergence is seeded with a cached one. *)

open Darm_ir

type stats = {
  mutable computes : int;  (** from-scratch analysis runs *)
  mutable reuses : int;
      (** queries served from cache — each one is a recompute a
          manager-less driver would have performed *)
}

type t

(** [create f] makes an empty manager for [f]. *)
val create : Ssa.func -> t

val func : t -> Ssa.func
val stats : t -> stats

(** Cache-served queries so far — the recomputes a manager-less driver
    would have performed (feeds the [analysis_recomputes_avoided]
    counter). *)
val recomputes_avoided : t -> int

(** Reachable blocks in DFS preorder (cached {!Cfg.reachable_blocks}). *)
val reachable : t -> Ssa.block list

val domtree : t -> Domtree.t
val postdomtree : t -> Domtree.t
val divergence : t -> Divergence.t
