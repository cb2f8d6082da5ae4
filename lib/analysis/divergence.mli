(** GPU divergence analysis.

    Determines which values and branches can differ between the threads
    of a warp, in the style of LLVM's divergence analysis (Karrenberg &
    Hack):

    - {b data dependence}: [thread.idx] is divergent; any instruction
      with a divergent operand is divergent (this covers loads, whose
      value is divergent exactly when the address is);
    - {b sync dependence}: for each divergent conditional branch, the
      phi nodes at its control-flow joins (every multi-predecessor block
      on a path between the branch and its immediate post-dominator,
      including the post-dominator itself) merge values from paths taken
      by different threads and are therefore divergent; a loop's back
      edge re-entering the header makes a divergent loop exit mark the
      header phis as well (temporal divergence).

    The analysis is a may-analysis: "divergent" is the conservative
    answer.  The melding pass only uses it to {e select} branches worth
    melding, so imprecision costs optimization opportunity, never
    correctness. *)

open Darm_ir

type t

(** [compute f] runs the analysis as one worklist along def-use
    edges ({!Darm_ir.Ssa.users}), from the [thread.idx] instructions: a
    divergent [condbr] marks the phis of its sync joins, which are
    found once per branch, over [f]'s post-dominator tree from its
    analysis cache ({!Darm_ir.Dom.tree}).  {!Manager.divergence} caches
    the result. *)
val compute : Ssa.func -> t

(** Result equality: same divergent-instruction set.  The random-edit
    property of test/suite_cfg_index.ml compares the analysis cache's
    result to a fresh one with it. *)
val equal : t -> t -> bool

val is_divergent_instr : t -> Ssa.instr -> bool

(** A conditional branch whose condition is thread-dependent. *)
val is_divergent_branch : t -> Ssa.block -> bool

(** Multi-predecessor blocks on paths from the successors of a branch
    block, stopping at (and including) its immediate post-dominator —
    the sync joins of the branch.  {!compute} reads it; the analysis
    suite's "sync_joins: no-postdom fallback" case calls it on a
    branch with no real post-dominator. *)
val sync_joins : Domtree.t -> Ssa.block -> Ssa.block list

(** Blocks ending in a divergent conditional branch. *)
val divergent_branches : t -> Ssa.func -> Ssa.block list

(** Human-readable per-value/per-branch report. *)
val report : t -> Ssa.func -> string
