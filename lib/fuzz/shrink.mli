(** Deterministic delta-debugging minimizer.

    Reduces a failing kernel (as printed IR text) to a small
    self-contained repro while preserving the failure, by iterating
    four reduction classes to a fixpoint:

    - {b collapse diamonds}: rewrite a conditional branch into an
      unconditional one (both arms tried), letting SimplifyCFG delete
      the unreachable side;
    - {b drop statements}: delete side-effecting instructions (stores,
      barriers);
    - {b zero values}: replace an instruction result with the zero of
      its type, letting DCE delete the computation tree behind it;
    - {b shrink constants}: replace non-zero integer constants with 0.

    After every candidate edit the function is cleaned up (SimplifyCFG,
    constant folding, DCE), re-verified, re-printed, and accepted only
    when [still_failing] holds on the new text — so the result always
    parses, verifies, and fails exactly like the original.  When every
    block the input's entry reaches can reach a [ret], a candidate with
    a reachable block that cannot (one sweep back from the return
    blocks over {!Darm_ir.Ssa.preds}) is rejected before
    [still_failing] runs: simulating it would spin until the cycle cap.
    The search is greedy and fully deterministic: the same input and
    predicate always produce the same minimal repro. *)

type result = {
  sh_text : string;  (** the minimized kernel, printed *)
  sh_steps : int;    (** accepted reductions *)
  sh_blocks : int;   (** basic blocks in the minimized kernel *)
}

(** [minimize ~still_failing text] requires [still_failing text] to
    hold on entry ([Invalid_argument] otherwise — the predicate and the
    seed disagree) and returns a fixpoint of the reduction classes.
    [max_steps] caps the number of accepted reductions (default
    [1_000]). *)
val minimize :
  ?max_steps:int -> still_failing:(string -> bool) -> string -> result

(** [minimize_failure sb fl] shrinks subject [sb]'s kernel while the
    oracle still reports [fl]'s {!Oracle.failure_key}, re-running only
    [fl]'s stage, and only warp 64 when [fl] was seen there.  It
    returns the result and the corpus entry that replays it: named
    after [sb] (['+'] becomes ['-']), expecting [fl]'s stage and kind,
    with [sb]'s block size, [n] and input seed (also its seed
    provenance).  [None] when [sb]'s kernel cannot be built (its bug
    does not graft), so there is nothing to shrink. *)
val minimize_failure :
  Oracle.subject -> Oracle.failure -> (result * Corpus.entry) option
