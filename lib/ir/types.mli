(** First-class types of the DARM IR.

    Pointer types carry an address space mirroring the GPU memory
    hierarchy; merging pointers of distinct spaces (e.g. with a [select]
    during melding) degrades to the generic {!Flat} space, exactly as in
    LLVM's addrspace model. *)

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

val addrspace_equal : addrspace -> addrspace -> bool

val equal : ty -> ty -> bool

(** [join_ptr a b] is the address space of a pointer that may point into
    either [a] or [b]; distinct concrete spaces degrade to [Flat]. *)
val join_ptr : addrspace -> addrspace -> addrspace

val addrspace_to_string : addrspace -> string

val to_string : ty -> string

val is_pointer : ty -> bool
