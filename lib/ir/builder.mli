(** Low-level, position-based IR builder.

    A builder holds a current insertion block; each [ins_*] function
    appends one instruction there and returns its result {!Ssa.value}.
    Types are inferred and checked at construction time, so malformed
    instructions fail fast ([Invalid_argument]) instead of surfacing
    later in the verifier. *)

type t

val create : Ssa.func -> t
val func : t -> Ssa.func

(** Create a fresh block named [name], append it to the function and
    return it.  Does not move the cursor. *)
val add_block : t -> string -> Ssa.block

val position_at_end : t -> Ssa.block -> unit

(** {2 Instructions} *)

val ins_ibin : t -> Op.ibinop -> Ssa.value -> Ssa.value -> Ssa.value
val ins_fbin : t -> Op.fbinop -> Ssa.value -> Ssa.value -> Ssa.value
val ins_icmp : t -> Op.icmp_pred -> Ssa.value -> Ssa.value -> Ssa.value
val ins_fcmp : t -> Op.fcmp_pred -> Ssa.value -> Ssa.value -> Ssa.value
val ins_not : t -> Ssa.value -> Ssa.value

(** Select over pointers of different address spaces yields a flat
    pointer ({!Types.join_ptr}). *)
val ins_select : t -> Ssa.value -> Ssa.value -> Ssa.value -> Ssa.value

val ins_load : t -> Ssa.value -> Ssa.value

(** Load producing a float; memory is untyped w.r.t. element type, the
    kernel author chooses the view. *)
val ins_load_f : t -> Ssa.value -> Ssa.value

val ins_store : t -> Ssa.value -> Ssa.value -> Ssa.value
val ins_gep : t -> Ssa.value -> Ssa.value -> Ssa.value

val ins_br : t -> Ssa.block -> unit
val ins_condbr : t -> Ssa.value -> Ssa.block -> Ssa.block -> unit
val ins_ret : t -> unit
val ins_thread_idx : t -> Ssa.value
val ins_block_idx : t -> Ssa.value
val ins_block_dim : t -> Ssa.value
val ins_grid_dim : t -> Ssa.value
val ins_syncthreads : t -> unit
val ins_alloc_shared : t -> int -> Ssa.value
val ins_sitofp : t -> Ssa.value -> Ssa.value
val ins_fptosi : t -> Ssa.value -> Ssa.value

(** {2 Convenience wrappers} *)

val add : t -> Ssa.value -> Ssa.value -> Ssa.value
val sub : t -> Ssa.value -> Ssa.value -> Ssa.value
val mul : t -> Ssa.value -> Ssa.value -> Ssa.value
val sdiv : t -> Ssa.value -> Ssa.value -> Ssa.value
val srem : t -> Ssa.value -> Ssa.value -> Ssa.value
val and_ : t -> Ssa.value -> Ssa.value -> Ssa.value
val or_ : t -> Ssa.value -> Ssa.value -> Ssa.value
val xor : t -> Ssa.value -> Ssa.value -> Ssa.value
val shl : t -> Ssa.value -> Ssa.value -> Ssa.value
val lshr : t -> Ssa.value -> Ssa.value -> Ssa.value
val i32 : int -> Ssa.value
val i1 : bool -> Ssa.value
val f32 : float -> Ssa.value
