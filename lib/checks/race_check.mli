(** Barrier-aware shared-memory race detection.

    The checker abstract-interprets every load/store address as [root +
    affine index] ({!Affine}), where a root is either an [Alloc_shared]
    instruction or a pointer parameter, resolved through [Gep] /
    [Addrspace_cast] chains.  Accesses are then split into {e barrier
    intervals} — a forward dataflow of reaching barriers, where each
    [Syncthreads] starts a fresh interval — and two accesses may race
    only when their interval sets intersect.  (Interval intersection is
    a sound "may happen between the same pair of barriers" test
    provided barriers are uniform; {!Barrier_check} reports the cases
    where they are not.)

    {b Errors are definite races only}: both addresses must resolve to
    the same shared root with affine indexes whose symbolic parts
    cancel, and a concrete witness pair of distinct threads [t <> t']
    in [0, 64) must hit the same element within a common barrier
    interval.  Definite races under a divergent branch are demoted to a
    [Warning] ([shared-race-divergent]) — lockstep execution can mask
    them — and accesses behind a provably single-thread guard
    ([tid == uniform]) are not reported at all.  Un-analyzable indexes
    (xor'd, masked, loaded) therefore never produce errors; they only
    degrade the {!verdict}.

    The {!verdict} is the dual, sound side: {!Proved_free} is only
    returned when every access that could possibly touch shared memory
    has a known root and a symbol-free affine index, and every
    write-involved pair in a common interval is provably disjoint {e
    for every block size} — this is what the fuzz harness
    cross-validates against the simulator. *)

open Darm_ir

type verdict =
  | Proved_free  (** no shared-memory race for any block size *)
  | Unknown  (** some access was not analyzable *)
  | Racy  (** a definite race was found (an [Error] was emitted) *)

type t

(** Divergence and the dominator tree come from [f]'s analysis cache
    ({!Darm_analysis.Manager}); [bdiv] (when supplied) must be current
    for [f] and saves re-running {!Barrier_check.analyze}, as the
    {!Checker} does. *)
val analyze : ?bdiv:Barrier_check.t -> Ssa.func -> t

val diags : t -> Diag.t list
val verdict : t -> verdict
val verdict_to_string : verdict -> string

(** The [id]s of this checker's diagnostics; suite_checks' "race:
    negative kernels" and "race: divergent demoted" cases match on
    them. *)
val id_race_ww : string
val id_race_rw : string
val id_race_divergent : string
