(** Low-level, position-based IR builder.

    A builder holds a current insertion block; {!ins} appends one
    instruction there and returns its result {!Ssa.value}.  Its type is
    the one {!Ssa.result_ty} derives, and the instruction is checked as
    {!Verify.check_instr} checks it before it is built, so a malformed
    instruction fails fast ([Invalid_argument] carrying the verifier's
    message) instead of surfacing later in the verifier. *)

type t

val create : Ssa.func -> t

(** Create a fresh block named [name], append it to the function and
    return it.  Does not move the cursor. *)
val add_block : t -> string -> Ssa.block

val position_at_end : t -> Ssa.block -> unit

(** [ins b ?ty ?targets op operands] appends [op operands] at the
    cursor.  [ty] states a type the rule leaves to the writer (a
    [load]'s [i32] or [f32]); [targets] are a [br]'s destination or a
    [condbr]'s two.  Raises [Invalid_argument] when no block is set or
    {!Verify.check_instr} rejects the instruction. *)
val ins :
  t -> ?ty:Types.ty -> ?targets:Ssa.block array -> Op.t -> Ssa.value array ->
  Ssa.value

(** {2 Constants} *)

val i32 : int -> Ssa.value
val i1 : bool -> Ssa.value
val f32 : float -> Ssa.value
