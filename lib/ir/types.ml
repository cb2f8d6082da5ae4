(** First-class types of the DARM IR.

    The IR is a small, typed, SSA-form intermediate representation modelled
    on the subset of LLVM-IR that the DARM/CFM melding transformation
    manipulates.  Pointer types carry an address space, mirroring the GPU
    memory hierarchy: [Global] is device memory (LLVM addrspace 1), [Shared]
    is on-chip scratchpad / LDS (addrspace 3) and [Flat] is the generic
    address space (addrspace 0) obtained when pointers of distinct spaces
    are merged, e.g. by a [select]. *)

type addrspace =
  | Global  (** off-chip device memory *)
  | Shared  (** per-block scratchpad (LDS / CUDA shared memory) *)
  | Flat    (** generic address space; may alias global or shared *)

type ty =
  | I1              (** booleans / branch conditions *)
  | I32             (** 32-bit integers *)
  | F32             (** 32-bit floats *)
  | Ptr of addrspace
  | Void            (** result type of stores, branches, barriers *)

let addrspace_equal (a : addrspace) (b : addrspace) = a = b

let equal (a : ty) (b : ty) = a = b

(** [join_ptr a b] is the address space of a pointer that may point into
    either [a] or [b]; distinct concrete spaces degrade to [Flat]. *)
let join_ptr (a : addrspace) (b : addrspace) : addrspace =
  if addrspace_equal a b then a else Flat

let addrspace_to_string = function
  | Global -> "global"
  | Shared -> "shared"
  | Flat -> "flat"

let to_string = function
  | I1 -> "i1"
  | I32 -> "i32"
  | F32 -> "f32"
  | Ptr a -> Printf.sprintf "ptr(%s)" (addrspace_to_string a)
  | Void -> "void"

let is_pointer = function Ptr _ -> true | I1 | I32 | F32 | Void -> false
