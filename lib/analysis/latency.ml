(** Static per-instruction latency model.

    Used in two places with the same numbers, exactly as in the paper:
    - the melding profitability heuristics FP_B / FP_S / FP_I
      (compile-time cost model), and
    - the SIMT simulator's cycle accounting (runtime cost model).

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

let default : config =
  {
    alu = 1;
    mul = 4;
    div = 16;
    falu = 4;
    fdiv = 16;
    cast = 2;
    select = 1;
    branch = 2;
    shared_mem = 24;
    global_mem = 96;
    flat_mem = 100;
    barrier = 8;
    intrinsic = 1;
  }

(** Address space actually accessed by a memory instruction, from the
    static type of its pointer operand. *)
let mem_space (i : Ssa.instr) : Types.addrspace option =
  let ptr_operand =
    match i.op with
    | Op.Load -> Some i.operands.(0)
    | Op.Store -> Some i.operands.(1)
    | _ -> None
  in
  match ptr_operand with
  | None -> None
  | Some p -> (
      match Ssa.value_ty p with Types.Ptr a -> Some a | _ -> None)

let mem_latency (c : config) = function
  | Types.Global -> c.global_mem
  | Types.Shared -> c.shared_mem
  | Types.Flat -> c.flat_mem

let of_instr (c : config) (i : Ssa.instr) : int =
  match i.op with
  | Op.Ibin (Op.Mul) -> c.mul
  | Op.Ibin (Op.Sdiv | Op.Srem) -> c.div
  | Op.Ibin _ -> c.alu
  | Op.Fbin (Op.Fdiv) -> c.fdiv
  | Op.Fbin _ -> c.falu
  | Op.Icmp _ | Op.Fcmp _ | Op.Not -> c.alu
  | Op.Select -> c.select
  | Op.Gep -> c.alu
  | Op.Load | Op.Store -> (
      match mem_space i with
      | Some a -> mem_latency c a
      | None -> c.global_mem)
  | Op.Phi -> 0 (* resolved on edges; no issue slot *)
  | Op.Br | Op.Condbr -> c.branch
  | Op.Ret -> 1
  | Op.Thread_idx | Op.Block_idx | Op.Block_dim | Op.Grid_dim -> c.intrinsic
  | Op.Syncthreads -> c.barrier
  | Op.Alloc_shared _ -> 0
  | Op.Sitofp | Op.Fptosi | Op.Addrspace_cast -> c.cast

(** Canonical instruction-class key: opcode plus address space for
    memory operations, so a shared load and a global load count as
    different classes (they have very different costs). *)
let class_of (i : Ssa.instr) : string =
  match i.op with
  | Op.Load | Op.Store -> (
      let base = Op.to_string i.op in
      match mem_space i with
      | Some a -> base ^ "." ^ Types.addrspace_to_string a
      | None -> base)
  | op -> Op.to_string op
