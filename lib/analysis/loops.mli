(** Natural-loop detection (back edges via the dominator tree). *)

open Darm_ir

type loop = {
  header : Ssa.block;
  latches : Ssa.block list;  (** sources of back edges into [header] *)
  body : (int, Ssa.block) Hashtbl.t;
      (** all blocks of the loop, incl. header *)
  mutable parent : loop option;
  mutable depth : int;  (** 1 for outermost loops *)
}

type t = {
  loops : loop list;
  loop_of : (int, loop) Hashtbl.t;
      (** block id -> innermost containing loop *)
}

val in_loop : loop -> Ssa.block -> bool
val blocks_of : loop -> Ssa.block list

(** Exiting edges of the loop: pairs (source inside, dest outside). *)
val exit_edges : loop -> (Ssa.block * Ssa.block) list

val compute : Ssa.func -> t
val loop_depth : t -> Ssa.block -> int
