(** Instruction opcodes and their static classification.

    The opcode set covers what GPU kernels compiled from HIP/CUDA to
    LLVM-IR use on the paths the melding transformation cares about:
    integer/float ALU operations, comparisons, selects, memory accesses,
    [phi] nodes, branches, and the GPU intrinsics (thread/block indices,
    barrier, shared-memory allocation). *)

type icmp_pred = Ieq | Ine | Islt | Isle | Isgt | Isge

type fcmp_pred = Foeq | Fone | Folt | Fole | Fogt | Foge

type ibinop =
  | Add | Sub | Mul | Sdiv | Srem
  | And | Or | Xor | Shl | Lshr | Ashr
  | Smin | Smax

type fbinop = Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax

type t =
  | Ibin of ibinop          (** operands: [a; b] *)
  | Fbin of fbinop          (** operands: [a; b] *)
  | Icmp of icmp_pred       (** operands: [a; b], result i1 *)
  | Fcmp of fcmp_pred       (** operands: [a; b], result i1 *)
  | Not                     (** operand: [a : i1] *)
  | Select                  (** operands: [cond; tval; fval] *)
  | Load                    (** operands: [ptr] *)
  | Store                   (** operands: [value; ptr], result void *)
  | Gep                     (** operands: [ptr; index] — element indexing *)
  | Phi                     (** operands: incoming values; blocks: sources *)
  | Br                      (** blocks: [dest] *)
  | Condbr                  (** operands: [cond]; blocks: [tdest; fdest] *)
  | Ret                     (** kernel exit *)
  | Thread_idx              (** intrinsic: thread index within block *)
  | Block_idx               (** intrinsic: block index within grid *)
  | Block_dim               (** intrinsic: threads per block *)
  | Grid_dim                (** intrinsic: blocks per grid *)
  | Syncthreads             (** intrinsic: block-wide barrier *)
  | Alloc_shared of int     (** static shared-memory array of [n] elements *)
  | Sitofp                  (** operand: [a : i32], result f32 *)
  | Fptosi                  (** operand: [a : f32], result i32 *)
  | Addrspace_cast          (** operand: [ptr], result ptr(flat) *)

val equal : t -> t -> bool

val is_terminator : t -> bool

(** Instructions observable from outside the defining thread or whose
    execution can trap; these may never be executed speculatively and
    may not be removed by dead-code elimination. *)
val has_side_effect : t -> bool

(** Side effects plus memory reads (which can fault on an address that
    is only valid on the guarded path): never hoist these out of their
    guarding branch. *)
val unsafe_to_speculate : t -> bool

(** ALU-class instructions for the utilization metric: everything issued
    to the vector ALU, i.e. neither memory traffic nor control flow. *)
val is_alu : t -> bool

val is_memory : t -> bool

val to_string : t -> string
