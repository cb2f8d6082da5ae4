(** Seeded-bug injection for the mutation-kill tests.

    Each {!bug} mirrors one {!Darm_kernels.Badkernels} negative class;
    {!inject} grafts the same defect onto an arbitrary generated kernel
    (IR-level surgery on the exit block), so the oracle can prove it
    catches the hazard in adversarial surroundings, not just in the
    hand-written registry kernel. *)

open Darm_ir

type bug =
  | Xbar   (** [syncthreads] guarded by a divergent [tid < 16] branch *)
  | Xrace  (** shared write-write overlap: [s\[tid\]] and [s\[tid+1\]] *)
  | Xrw    (** shared read-write overlap: reads [s\[tid+1\]] against
               [s\[tid\]] writes in the same barrier interval *)

val all : bug list

(** The matching {!Darm_kernels.Badkernels} registry tag: XBAR, XRACE,
    XRW. *)
val tag : bug -> string

val of_tag : string -> bug option

(** Graft the bug onto [f] (in place).  [Error] when the kernel lacks
    the ingredients ([Xrace]/[Xrw] need a shared array; all need a
    [ret] exit block and two pointer parameters). *)
val inject : bug -> Ssa.func -> (unit, string) result
