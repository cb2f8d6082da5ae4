(** Static per-instruction latency model.

    Used in two places with the same numbers, exactly as in the paper:
    the melding profitability heuristics FP_B / FP_S / FP_I
    (compile-time cost model) and the SIMT simulator's cycle accounting
    (runtime cost model).

    The values are issue-cost approximations in the spirit of the AMD
    Vega ISA: cheap integer ALU, moderately expensive multiplies and
    floating point, LDS (shared) accesses an order of magnitude above
    ALU, and global/flat memory several times beyond that.  The paper's
    observation that "melding shared memory instructions is more
    beneficial than melding ALU instructions" falls directly out of this
    ordering. *)

open Darm_ir

type config = {
  alu : int;
  mul : int;
  div : int;
  falu : int;
  fdiv : int;
  cast : int;
  select : int;
  branch : int;
  shared_mem : int;
  global_mem : int;
  flat_mem : int;
  barrier : int;
  intrinsic : int;
}

val default : config

val of_instr : config -> Ssa.instr -> int

(** Canonical instruction-class key: opcode plus address space for
    memory operations (a shared and a global load have very different
    costs).  The melding profitability uses plain opcodes as its class
    set Q instead (see {!Darm_core.Profitability}); the analysis
    suite's "latency model" case calls this one. *)
val class_of : Ssa.instr -> string
