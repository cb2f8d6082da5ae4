(** Per-function analysis manager: caches the CFG walk, dominator and
    post-dominator trees and divergence behind a typed query API, and
    invalidates selectively from the {!Edit} sets that transforms
    report.

    Invalidation rules (see {!Edit.t} for the edit contracts):

    {v
    edit        cfg   domtree  postdomtree  divergence
    Dce         keep  keep     keep         drop
    Cfg_local   drop  drop     drop         drop
    Whole       drop  drop     drop         drop
    v}

    [Dce] keeps every CFG-derived analysis (dead-code elimination never
    touches terminators) but drops divergence: the divergent-instruction
    set may shrink when a {e dead} divergent instruction is removed, so
    a cached result would fail the debug-mode set comparison.

    The post-dominator tree is shared with a cached divergence result
    in both directions: it is served from one (divergence computes one
    internally), and divergence is seeded with a cached one.

    Debug mode ([~debug:true] or the [DARM_ANALYSIS_DEBUG] environment
    variable) cross-validates every cache-served query against a
    from-scratch recompute and raises {!Stale_analysis} on mismatch —
    the harness for catching transforms that under-report their
    edits. *)

open Darm_ir

(** Raised in debug mode when a cache-served analysis differs from a
    from-scratch recompute: some transform under-reported an edit. *)
exception Stale_analysis of string

type stats = {
  mutable computes : int;  (** from-scratch analysis runs *)
  mutable reuses : int;
      (** queries served from cache — each one is a recompute a
          manager-less driver would have performed *)
  mutable invalidations : int;  (** cached results dropped by edits *)
  mutable cross_checks : int;  (** debug-mode recompute comparisons *)
}

type t

(** [create ?debug f] makes an empty manager for [f].  [debug] defaults
    to the [DARM_ANALYSIS_DEBUG] environment variable. *)
val create : ?debug:bool -> Ssa.func -> t

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

(** Report one edit; invalidates per the table above. *)
val note : t -> Edit.t -> unit

(** Report edits oldest-first (e.g. an {!Edit.drain} result). *)
val note_all : t -> Edit.t list -> unit

(** Conservative full invalidation (= [note m Whole]). *)
val invalidate_all : t -> unit
