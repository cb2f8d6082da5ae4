(** Reusable forward-dataflow framework over {!Darm_analysis.Cfg}.

    A checker instantiates {!Forward} with a join-semilattice domain and
    a per-block transfer function; the solver runs a worklist seeded in
    reverse postorder (the canonical forward iteration order) to a
    fixpoint.  Both users in this library — the reaching-barrier
    interval analysis of {!Race_check} and the open-divergent-branch
    analysis of {!Barrier_check} — are set-based may-analyses, but the
    framework is agnostic: any finite-height domain with a monotone
    transfer terminates.

    Unreachable blocks keep the [init] (bottom) fact and are never
    visited by the transfer function. *)

open Darm_ir

module type DOMAIN = sig
  type t

  val equal : t -> t -> bool

  (** Least upper bound; must be associative, commutative and
      idempotent, with the solver's [init] fact as its identity. *)
  val join : t -> t -> t
end

module Forward (D : DOMAIN) : sig
  type result

  (** [solve ~entry ~init ~transfer f] — [entry] is the fact at the
      function entry, [init] the bottom element assumed for
      not-yet-visited predecessors, [transfer b fact] the fact at the
      end of [b] given the fact at its start. *)
  val solve :
    entry:D.t ->
    init:D.t ->
    transfer:(Ssa.block -> D.t -> D.t) ->
    Ssa.func ->
    result

  (** Fact at block entry (join over predecessor exits); [init] for
      unreachable blocks. *)
  val block_in : result -> Ssa.block -> D.t
end
