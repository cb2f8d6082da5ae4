(** The analysis cache: the reachable walk, the dominator and
    post-dominator trees and divergence of a function, kept with the
    function itself ({!Darm_ir.Ssa.cached}), beside the verifier's pass
    mark ({!Darm_ir.Verify.check}).  Every consumer asks by function:
    the verifier, the checkers, the simulator's post-dominator tree, the
    pass, [Meld.run] and {!Loops.compute}.

    A cached result is served while the function's edit count
    ([Ssa.func]'s [edit_count]) is unchanged.  Every mutator in
    {!Darm_ir.Ssa} bumps that count, and nothing else writes a field
    the analyses read, so a query after any edit recomputes: a stale
    result cannot be served.

    Only one domain uses a function at a time, since a query writes the
    function's cache.  The harness's experiments, the batch workers, the
    fuzz oracle's subjects and the bench's cross-model re-runs each
    build the functions they run in the domain that runs them. *)

open Darm_ir

(** Reachable blocks in DFS preorder ({!Cfg.reachable_blocks}); kind
    ["reachable"]. *)
val reachable : Ssa.func -> Ssa.block list

(** {!Domtree.compute}; kind ["domtree"]. *)
val domtree : Ssa.func -> Domtree.t

(** {!Domtree.compute_post}; kind ["postdomtree"]. *)
val postdomtree : Ssa.func -> Domtree.t

(** {!Divergence.compute}; kind ["divergence"]. *)
val divergence : Ssa.func -> Divergence.t

(** [computes f kind]: how many results of [kind] have been computed
    over [f], through the cache or not: one of the kinds above, or
    ["verify"] for the verifier's walks ({!Darm_ir.Verify.run}). *)
val computes : Ssa.func -> string -> int

(** The queries of every kind that [f]'s cache has served so far; a
    pass run's [analysis_recomputes_avoided] is its growth over the
    run. *)
val recomputes_avoided : Ssa.func -> int
